package shard

import "net/http"

// ShardServer is shard i's own server handler, for tests that wrap it.
func (c *Coordinator) ShardServer(i int) http.Handler { return c.nodes[i].srv }
