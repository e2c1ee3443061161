package server

import "smoke/internal/core"

// accounting is the registry's byte bookkeeping next to what it holds.
type accounting struct {
	retained, residentBytes int64 // charged vs Σ MemBytes of distinct resident Results
	diskBytes, segmentBytes int64 // charged vs Σ bytes of the entries' segments
}

func registryAccounting(reg *registry) accounting {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	a := accounting{retained: reg.retained, diskBytes: reg.diskBytes}
	seen := map[*core.Result]bool{}
	for _, s := range reg.sessions {
		for _, e := range s.entries {
			if e.res != nil && !seen[e.res] {
				seen[e.res] = true
				a.residentBytes += e.res.MemBytes()
			}
			if e.seg != nil {
				a.segmentBytes += e.seg.bytes
			}
		}
	}
	return a
}

// tierOf reports which answerers session sid's result name holds: a
// resident memory copy, a disk segment, or both.
func tierOf(reg *registry, sid, name string) (resident, onDisk bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if s := reg.sessions[sid]; s != nil {
		if e := s.entries[name]; e != nil {
			return e.res != nil, e.seg != nil
		}
	}
	return false, false
}
