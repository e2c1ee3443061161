package server

import (
	"smoke/internal/core"
	"smoke/internal/diskstore"
)

// resultStore is the slice of the disk store the registry and its flusher
// use. It is an interface so tests can wrap the real *diskstore.Store with
// fault injection — a put that blocks (proving handlers never wait on
// segment I/O) or fails mid-flush (crash recovery) — without a build seam
// in the store itself.
type resultStore interface {
	PutResultNoPublish(session, name string, r *diskstore.Result) (int64, error)
	LoadResult(session, name string) (*diskstore.Result, error)
	DeleteResultNoPublish(session, name string) bool
	DeleteSessionNoPublish(session string) bool
	Publish() error
	Sessions() map[string]map[string]int64
	StaleResults() map[string][]string
	NextSessionID() uint64
	SetNextSessionID(id uint64)
}

// resultToDisk projects a retained result onto the disk tier's exchange
// shape: the output relation, group counts, the captured lineage indexes,
// and the base-relation snapshots the capture's rids address. The plan is
// not persisted: the registry keeps it with the entry in memory and attaches
// it to the copy restored from the segment (core.Result.AttachPlan), so
// only a restart loses it.
func resultToDisk(res *core.Result) *diskstore.Result {
	return &diskstore.Result{
		Out:         res.Out,
		GroupCounts: res.GroupCounts,
		Capture:     res.Capture(),
		Bases:       res.Bases(),
	}
}
