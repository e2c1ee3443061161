// Package diskstore is the out-of-core tier under the server's session
// registry: columnar relation segments and encoded lineage chunk files in an
// mmap-friendly layout, indexed by a small JSON manifest that is republished
// atomically (temp + fsync + rename) after every mutation. Eviction in the
// registry demotes retained results here instead of tombstoning them, traces
// over demoted captures run in situ over the mapped chunk bytes, and a
// restarted smoked recovers every published table and session from the
// manifest. The encoded lineage representation (internal/lineage/encoded.go)
// is stored byte-identical on disk — persistence is a layout concern, not a
// recode (cf. "Compression and In-Situ Query Processing for Fine-Grained
// Array Lineage").
//
// Crash safety is publish-granular: a segment becomes reachable only by a
// manifest publish that follows its own fsync+rename, so a crash at any
// point leaves the previous manifest and a sweepable orphan, never a
// half-written reachable file. All segment files live flat in the store
// directory; names are store-generated sequence numbers (client-supplied
// table/result names appear only inside the manifest), so no path escapes it.
package diskstore

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"smoke/internal/lineage"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// Result is the exchange shape between the registry and the store: the parts
// of a retained result that must survive a restart. The server converts to
// and from core.Result at the demotion boundary.
type Result struct {
	Out         *storage.Relation
	GroupCounts []int64
	Capture     *lineage.Capture
	// Bases holds the base relations the capture's indexes refer to, by
	// table name. Forward traces re-resolve seed rids against these after a
	// restart, so they persist with the result (shared segments when the
	// relation is a published table).
	Bases map[string]*storage.Relation
}

type tableEntry struct {
	File string `json:"file"`
	PK   string `json:"pk,omitempty"`
}

type resultEntry struct {
	File  string   `json:"file"`
	Bytes int64    `json:"bytes"`
	Bases []string `json:"bases,omitempty"` // standalone base segments referenced
}

type sessionEntry struct {
	Results map[string]resultEntry `json:"results"`
}

type manifest struct {
	Version       int                      `json:"version"`
	Seq           uint64                   `json:"seq"`
	NextSessionID uint64                   `json:"next_session_id"`
	Tables        map[string]tableEntry    `json:"tables"`
	Sessions      map[string]*sessionEntry `json:"sessions"`
}

const manifestName = "manifest.json"

// Store is the on-disk tier rooted at one directory. All methods are safe
// for concurrent use. Segment writes (PutResult, PutTable) run off the
// store mutex — the lock covers only manifest bookkeeping and file-name
// reservation — so loads (promotions, table reads) never stall behind an
// in-flight spill. The server funnels all result writes through one
// background flusher goroutine and batches manifest publishes with the
// *NoPublish variants.
type Store struct {
	mu   sync.Mutex
	dir  string
	man  manifest
	segs []*segment // every live mapping; unmapped only at Close

	// relFiles remembers which segment file a live *Relation was written to
	// (or loaded from), so a capture whose base is a published table
	// references the table's segment instead of re-embedding the data.
	relFiles map[*storage.Relation]string
	// relByFile dedups loads: results sharing a base segment share the
	// loaded *Relation.
	relByFile map[string]*storage.Relation
	// stale is what Open dropped because the segment was written in format
	// v1: session id → result names (see StaleResults).
	stale map[string][]string
	// writing counts, per file name, the segment writes in flight off the
	// mutex that create or reference the file. The orphan sweep of a
	// concurrent publish must spare them: until the writer's manifest
	// commit nothing may reference them.
	writing map[string]int
}

// Open opens (or initializes) a store directory: loads the manifest, drops
// manifest entries whose segment files are missing or were written in the
// previous segment format, and sweeps the files nothing references any more
// — those, and the orphaned segment and temp files left by a crash between
// segment rename and manifest publish.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		man:       manifest{Version: 1, Tables: map[string]tableEntry{}, Sessions: map[string]*sessionEntry{}},
		relFiles:  map[*storage.Relation]string{},
		relByFile: map[string]*storage.Relation{},
		stale:     map[string][]string{},
		writing:   map[string]int{},
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &s.man); err != nil {
			return nil, fmt.Errorf("diskstore: %s is corrupt: %w", manifestName, err)
		}
		if s.man.Tables == nil {
			s.man.Tables = map[string]tableEntry{}
		}
		if s.man.Sessions == nil {
			s.man.Sessions = map[string]*sessionEntry{}
		}
	case os.IsNotExist(err):
		// Fresh store; first publish creates the manifest.
	default:
		return nil, err
	}
	s.dropUnusable()
	if err := s.sweepOrphans(); err != nil {
		return nil, err
	}
	return s, nil
}

// dropUnusable removes manifest entries this build cannot serve: those whose
// backing file vanished (partial corruption, manual deletion) and results
// whose segment is format v1, i.e. holds lineage chunks no decoder reads any
// more. Recovery is best-effort per entry, not all-or-nothing. The v1 results
// are remembered (StaleResults) and reported in one log line; their files go
// with the orphan sweep that follows. v1 table and base segments still load.
func (s *Store) dropUnusable() {
	exists := func(file string) bool {
		_, err := os.Stat(filepath.Join(s.dir, file))
		return err == nil
	}
	isV1 := func(file string) bool {
		f, err := os.Open(filepath.Join(s.dir, file))
		if err != nil {
			return false
		}
		defer f.Close()
		var magic [len(segMagicV1)]byte
		_, err = io.ReadFull(f, magic[:])
		return err == nil && string(magic[:]) == segMagicV1
	}
	for name, t := range s.man.Tables {
		if !exists(t.File) {
			delete(s.man.Tables, name)
		}
	}
	stale := 0
	for sid, se := range s.man.Sessions {
		for name, re := range se.Results {
			ok := exists(re.File)
			for _, b := range re.Bases {
				ok = ok && exists(b)
			}
			if ok && isV1(re.File) {
				s.stale[sid] = append(s.stale[sid], name)
				stale++
				ok = false
			}
			if !ok {
				delete(se.Results, name)
			}
		}
		if len(se.Results) == 0 {
			delete(s.man.Sessions, sid)
		}
	}
	if stale > 0 {
		slog.Warn("diskstore: dropped retained results written in segment format v1 (the lineage chunk format changed); re-run their base queries",
			"dir", s.dir, "dropped", stale)
	}
}

// StaleResults returns the results Open dropped because their segments were
// written in the previous format: session id → result names. They are gone
// for good — the server answers 410 for them, as for any evicted result whose
// query it no longer remembers.
func (s *Store) StaleResults() map[string][]string { return s.stale }

// referenced returns every segment file the manifest reaches.
func (s *Store) referenced() map[string]bool {
	ref := map[string]bool{}
	for _, t := range s.man.Tables {
		ref[t.File] = true
	}
	for _, se := range s.man.Sessions {
		for _, re := range se.Results {
			ref[re.File] = true
			for _, b := range re.Bases {
				ref[b] = true
			}
		}
	}
	return ref
}

// sweepOrphans deletes *.tmp files and unreferenced *.seg files. Called at
// Open (crash leftovers) and after manifest publishes that dropped entries.
// Deleting a file that a live promotion still has mapped is safe on unix —
// the mapping holds the inode — and the fallback loader copied the bytes.
func (s *Store) sweepOrphans() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	ref := s.referenced()
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp") && s.writing[strings.TrimSuffix(name, ".tmp")] == 0:
			_ = os.Remove(filepath.Join(s.dir, name))
		case strings.HasSuffix(name, ".seg") && !ref[name] && s.writing[name] == 0:
			_ = os.Remove(filepath.Join(s.dir, name))
			// A relation that lived in the file must be written again by
			// the next result that references it.
			if rel := s.relByFile[name]; rel != nil {
				delete(s.relFiles, rel)
				delete(s.relByFile, name)
			}
		}
	}
	return nil
}

// publish atomically replaces the manifest, then sweeps newly unreferenced
// segments. Caller holds s.mu.
func (s *Store) publishLocked() error {
	raw, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(raw)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return err
	}
	if err := fsyncDir(s.dir); err != nil {
		return err
	}
	return s.sweepOrphans()
}

// doneWritingLocked releases one in-flight write's claim on each file.
func (s *Store) doneWritingLocked(files ...string) {
	for _, f := range files {
		if s.writing[f]--; s.writing[f] <= 0 {
			delete(s.writing, f)
		}
	}
}

func (s *Store) nextFile(prefix string) string {
	s.man.Seq++
	return fmt.Sprintf("%s%06d.seg", prefix, s.man.Seq)
}

func (s *Store) open(file string, full bool) (*segment, error) {
	seg, err := openSegment(filepath.Join(s.dir, file), full)
	if err != nil {
		return nil, err
	}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close unmaps every mapping the store handed out. It must only be called
// once no relation or index loaded from this store is still in use.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.close()
	}
	s.segs = nil
	return nil
}

// NextSessionID returns the persisted session-id watermark.
func (s *Store) NextSessionID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.NextSessionID
}

// SetNextSessionID records the registry's session-id watermark in the
// in-memory manifest; it rides out with the next publish. Persisting it
// lazily is safe: a session becomes recoverable only via a PutResult, whose
// publish carries the watermark that already covers the session's own id.
func (s *Store) SetNextSessionID(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id > s.man.NextSessionID {
		s.man.NextSessionID = id
	}
}

// Publish forces a manifest publish (shutdown flush).
func (s *Store) Publish() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked()
}

// ---- tables ----

// PutTable persists a base table (ingest write-through) and publishes. The
// relation pointer is remembered so captures over this table reference its
// segment instead of embedding a copy. The segment write runs off the store
// mutex; only name reservation and the manifest commit hold it.
func (s *Store) PutTable(rel *storage.Relation, pk string) error {
	s.mu.Lock()
	w := &segWriter{meta: segMeta{Kind: "relation"}}
	m := relMetaOf(rel)
	w.meta.Relation = &m
	addRelationSections(w, "", rel)
	file := s.nextFile("t")
	s.writing[file]++
	s.mu.Unlock()

	_, err := w.writeTo(filepath.Join(s.dir, file))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneWritingLocked(file)
	if err != nil {
		return err
	}
	s.man.Tables[rel.Name] = tableEntry{File: file, PK: pk}
	s.relFiles[rel] = file
	s.relByFile[file] = rel
	return s.publishLocked()
}

// Tables returns the published table names and their primary keys.
func (s *Store) Tables() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.man.Tables))
	for name, t := range s.man.Tables {
		out[name] = t.PK
	}
	return out
}

// LoadTable maps a published table. Fixed-width columns alias the mapping.
func (s *Store) LoadTable(name string) (*storage.Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.man.Tables[name]
	if !ok {
		return nil, serr.New(serr.NotFound, "diskstore: no table %q", name)
	}
	rel, err := s.loadRelFileLocked(t.File)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

func (s *Store) loadRelFileLocked(file string) (*storage.Relation, error) {
	if rel, ok := s.relByFile[file]; ok {
		return rel, nil
	}
	seg, err := s.open(file, false)
	if err != nil {
		return nil, err
	}
	if seg.meta.Kind != "relation" || seg.meta.Relation == nil {
		return nil, corruptf(seg.path, "expected a relation segment, got %q", seg.meta.Kind)
	}
	rel, err := loadRelation(seg, "", *seg.meta.Relation)
	if err != nil {
		return nil, err
	}
	s.relByFile[file] = rel
	s.relFiles[rel] = file
	return rel, nil
}

// ---- results ----

// PutResult persists one retained result under (session, name) and publishes.
// Base relations already backed by a segment (published tables, previously
// spilled bases) are referenced; others are written once as standalone
// relation segments and shared by pointer identity across results. Returns
// the result's on-disk footprint (its segment plus referenced standalone
// base segments).
func (s *Store) PutResult(session, name string, r *Result) (int64, error) {
	bytes, err := s.putResult(session, name, r)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.publishLocked(); err != nil {
		return 0, err
	}
	return bytes, nil
}

// PutResultNoPublish persists a result without publishing the manifest: the
// segment bytes are durably on disk (written + fsynced), but unreachable
// after a crash until the next Publish. The server's background flusher
// batches several puts per publish this way.
func (s *Store) PutResultNoPublish(session, name string, r *Result) (int64, error) {
	return s.putResult(session, name, r)
}

// putResult writes the result's segments and updates the in-memory manifest.
// It runs in three phases so the segment I/O — the expensive part — never
// holds the store mutex: (1) locked, build the section writers and reserve
// file names (including standalone base segments for relations not yet
// backed by one); (2) unlocked, write and fsync the segment files;
// (3) locked, record the manifest entry. Concurrent loads therefore never
// stall behind a spill. The base-file reservations of phase 1 are
// optimistic — a failed write removes them again, and the then-orphaned
// files are swept at the next publish. The server funnels all result writes
// through one flusher goroutine, so two concurrent puts cannot race on
// reserving the same base relation.
func (s *Store) putResult(session, name string, r *Result) (int64, error) {
	s.mu.Lock()
	var baseFiles []string
	w := &segWriter{meta: segMeta{Kind: "result"}}
	rm := &resultMeta{Out: relMetaOf(r.Out)}
	addRelationSections(w, "out/", r.Out)
	if r.GroupCounts != nil {
		rm.GroupCounts = true
		w.add("gc", bytesOf(r.GroupCounts))
	}

	baseNames := make([]string, 0, len(r.Bases))
	for t := range r.Bases {
		baseNames = append(baseNames, t)
	}
	sort.Strings(baseNames)
	type baseWrite struct {
		w    *segWriter
		rel  *storage.Relation
		file string
	}
	var writes []baseWrite
	for _, t := range baseNames {
		rel := r.Bases[t]
		file, ok := s.relFiles[rel]
		if !ok {
			// First spill of this relation: write it once as a standalone
			// segment; later results sharing the pointer reference it.
			bw := &segWriter{meta: segMeta{Kind: "relation"}}
			bm := relMetaOf(rel)
			bw.meta.Relation = &bm
			addRelationSections(bw, "", rel)
			file = s.nextFile("r")
			s.relFiles[rel] = file
			s.relByFile[file] = rel
			writes = append(writes, baseWrite{w: bw, rel: rel, file: file})
		}
		// Every referenced base file is recorded in the manifest entry —
		// that is what keeps a superseded table segment alive (and
		// recoverable) while a retained capture still points at it.
		baseFiles = append(baseFiles, file)
		s.writing[file]++
		rm.Bases = append(rm.Bases, baseMeta{Table: t, File: file})
	}

	if r.Capture != nil {
		for i, t := range r.Capture.Relations() {
			if r.Capture.HasBackward(t) {
				ix, _ := r.Capture.BackwardIndex(t)
				sec := fmt.Sprintf("ix%d.bw", i)
				rm.Indexes = append(rm.Indexes, addIndexSections(w, sec, t, "bw", ix))
			}
			if r.Capture.HasForward(t) {
				ix, _ := r.Capture.ForwardIndex(t)
				sec := fmt.Sprintf("ix%d.fw", i)
				rm.Indexes = append(rm.Indexes, addIndexSections(w, sec, t, "fw", ix))
			}
		}
	}
	w.meta.Result = rm
	file := s.nextFile("s")
	s.writing[file]++
	s.mu.Unlock()
	written := func() {
		s.doneWritingLocked(baseFiles...)
		s.doneWritingLocked(file)
	}

	// Phase 2: segment I/O off the lock. On failure the base reservations
	// roll back so relFiles never points at a file that was not written.
	unreserve := func() {
		s.mu.Lock()
		written()
		for _, bw := range writes {
			delete(s.relFiles, bw.rel)
			delete(s.relByFile, bw.file)
		}
		s.mu.Unlock()
	}
	for _, bw := range writes {
		if _, err := bw.w.writeTo(filepath.Join(s.dir, bw.file)); err != nil {
			unreserve()
			return 0, err
		}
	}
	var standalone int64
	for _, bf := range baseFiles {
		if strings.HasPrefix(bf, "r") { // standalone: charged to this result
			if st, err := os.Stat(filepath.Join(s.dir, bf)); err == nil {
				standalone += st.Size()
			}
		}
	}
	n, err := w.writeTo(filepath.Join(s.dir, file))
	if err != nil {
		unreserve()
		return 0, err
	}

	// Phase 3: manifest commit.
	s.mu.Lock()
	defer s.mu.Unlock()
	written()
	se := s.man.Sessions[session]
	if se == nil {
		se = &sessionEntry{Results: map[string]resultEntry{}}
		s.man.Sessions[session] = se
	}
	bytes := n + standalone
	se.Results[name] = resultEntry{File: file, Bytes: bytes, Bases: baseFiles}
	return bytes, nil
}

// Sessions returns the recoverable sessions: session id → result name →
// on-disk bytes.
func (s *Store) Sessions() map[string]map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[string]int64, len(s.man.Sessions))
	for sid, se := range s.man.Sessions {
		rs := make(map[string]int64, len(se.Results))
		for name, re := range se.Results {
			rs[name] = re.Bytes
		}
		out[sid] = rs
	}
	return out
}

// LoadResult maps a demoted result back in. The output relation's
// fixed-width columns and every lineage index alias the mapping; traces over
// the encoded indexes run in situ on the mapped chunk bytes.
func (s *Store) LoadResult(session, name string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.man.Sessions[session]
	if se == nil {
		return nil, serr.New(serr.NotFound, "diskstore: no session %q", session)
	}
	re, ok := se.Results[name]
	if !ok {
		return nil, serr.New(serr.NotFound, "diskstore: session %q has no result %q", session, name)
	}
	seg, err := s.open(re.File, false)
	if err != nil {
		return nil, err
	}
	if seg.meta.Kind != "result" || seg.meta.Result == nil {
		return nil, corruptf(seg.path, "expected a result segment, got %q", seg.meta.Kind)
	}
	rm := seg.meta.Result
	out, err := loadRelation(seg, "out/", rm.Out)
	if err != nil {
		return nil, err
	}
	r := &Result{Out: out, Bases: map[string]*storage.Relation{}}
	if rm.GroupCounts {
		b, err := seg.section("gc")
		if err != nil {
			return nil, err
		}
		r.GroupCounts = asSlice[int64](b)
	}
	for _, bm := range rm.Bases {
		rel, err := s.loadRelFileLocked(bm.File)
		if err != nil {
			return nil, err
		}
		r.Bases[bm.Table] = rel
	}
	if len(rm.Indexes) > 0 {
		cp := lineage.NewCapture()
		for _, im := range rm.Indexes {
			// Forward values index output rows, backward ones base rows
			// (unbounded but for the rid type when no base is recorded).
			bound := out.N
			if im.Dir == "bw" {
				bound = math.MaxInt32
				if base, ok := r.Bases[im.Rel]; ok {
					bound = base.N
				}
			}
			ix, err := loadIndex(seg, im.Sec, im, bound)
			if err != nil {
				return nil, err
			}
			if im.Dir == "bw" {
				cp.SetBackward(im.Rel, ix)
			} else {
				cp.SetForward(im.Rel, ix)
			}
		}
		r.Capture = cp
	}
	return r, nil
}

// DeleteResult drops a demoted result from the manifest and publishes; its
// segment (and any base segment no longer referenced) is swept.
func (s *Store) DeleteResult(session, name string) error {
	if !s.DeleteResultNoPublish(session, name) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked()
}

// DeleteResultNoPublish drops a result's manifest entry without publishing;
// it reports whether anything changed. The deleted segment stays on disk
// (and sweepable) until the next Publish.
func (s *Store) DeleteResultNoPublish(session, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.man.Sessions[session]
	if se == nil {
		return false
	}
	if _, ok := se.Results[name]; !ok {
		return false
	}
	delete(se.Results, name)
	if len(se.Results) == 0 {
		delete(s.man.Sessions, session)
	}
	return true
}

// DeleteSession drops every demoted result of a session and publishes.
func (s *Store) DeleteSession(session string) error {
	if !s.DeleteSessionNoPublish(session) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked()
}

// DeleteSessionNoPublish drops a session's manifest entry without
// publishing; it reports whether anything changed.
func (s *Store) DeleteSessionNoPublish(session string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.man.Sessions[session]; !ok {
		return false
	}
	delete(s.man.Sessions, session)
	return true
}

// VerifyAll re-opens every referenced segment with full checksum
// verification (tests and offline fsck; never on the serving path).
func (s *Store) VerifyAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for file := range s.referenced() {
		seg, err := openSegment(filepath.Join(s.dir, file), true)
		if err != nil {
			return err
		}
		seg.close()
	}
	return nil
}
