package diskstore

// Segment file format. A segment persists either one relation or one retained
// result (output relation + group counts + encoded lineage indexes + base
// relations), laid out mmap-friendly:
//
//	[0, 8)      magic "SMKSEG2\n"
//	[4096, ...) sections, each starting on a 4096-byte page boundary
//	...         JSON directory (segMeta)
//	trailer     uint32 LE directory length | magic (the file's last 12 bytes)
//
// The JSON directory names every section with its absolute offset, length,
// and CRC32. Putting the directory at the tail (like an SSTable footer) means
// every section offset is known before the directory is marshaled, and a
// torn write is detectable from the trailer alone. Page alignment does
// double duty: every section is naturally aligned for the unsafe casts to
// []int64 / []uint32 / []int32 views over the mapping, and an encoded
// index's offs directory sits on its own pages so a trace faults in only the
// directory plus the chunk pages its seeds touch.
//
// Integer sections are native-endian (the store is a cache local to one
// machine, not an interchange format); the magic would have to be versioned
// before a cross-architecture reader could exist.
//
// The magic's digit is the format version. Lineage chunk bytes are persisted
// verbatim, so the chunk format (internal/lineage/encoded.go) is part of this
// one: version 2 is chunk format v2. Nothing decodes v1 chunks any more, so a
// v1 result segment is unreadable — Open drops those (see dropUnusable) — but
// a v1 relation segment holds no chunk bytes, has the same layout, and still
// loads: an upgrade must not lose ingested tables.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"unsafe"

	"smoke/internal/lineage"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

const (
	segMagic   = "SMKSEG2\n"
	segMagicV1 = "SMKSEG1\n"
	pageSize   = 4096
)

type sectionMeta struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	CRC  uint32 `json:"crc"`
}

type fieldMeta struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

type relMeta struct {
	Name   string      `json:"name"`
	N      int         `json:"n"`
	Fields []fieldMeta `json:"fields"`
}

// indexMeta describes one persisted lineage index. Kind is the physical
// representation: "arr" (raw 1-to-1 rid array), "encarr" (EncodedArr run
// directory), "encmany" (EncodedIndex chunk store: an optional ".words"
// presence bitmap over its N entries — then ".offs" covers the set ones
// only — ".offs" and ".data"), or "sparse" (SparseArr: an optional ".words"
// presence bitmap — none means every record is present — and one Bits-bit
// value slot per present record in ".vals"). Rank directories are rebuilt at
// load. A "sparse" entry without Bits was written with byte-wide slots:
// Bits is then 8·Width (32 when Width is absent too) and the all-ones slot
// is -1 whatever the form, which is what Sentinel says for entries with Bits.
// Raw 1-to-N indexes are encoded before they are written — the chunked
// encoding IS the persistence format — so "rawmany" does not exist on disk.
type indexMeta struct {
	Sec      string `json:"sec"` // section-name prefix inside the segment
	Rel      string `json:"rel"`
	Dir      string `json:"dir"`  // "bw" | "fw"
	Kind     string `json:"kind"` // "arr" | "encarr" | "encmany" | "sparse"
	N        int    `json:"n"`
	Card     int    `json:"card,omitempty"`
	Width    int    `json:"width,omitempty"`    // "sparse" slot bytes, older writers only
	Bits     int    `json:"bits,omitempty"`     // "sparse" slot bits; absent: 8·Width
	Sentinel bool   `json:"sentinel,omitempty"` // "sparse" with Bits: the all-ones slot is -1
}

// baseMeta names one base relation a result's capture refers to and the
// shared relation segment holding its data (a published table's segment, or
// a standalone spill written on first demotion).
type baseMeta struct {
	Table string `json:"table"`
	File  string `json:"file"`
}

type resultMeta struct {
	Out         relMeta     `json:"out"`
	GroupCounts bool        `json:"group_counts,omitempty"`
	Indexes     []indexMeta `json:"indexes"`
	Bases       []baseMeta  `json:"bases,omitempty"`
}

type segMeta struct {
	Kind     string        `json:"kind"` // "relation" | "result"
	Relation *relMeta      `json:"relation,omitempty"`
	Result   *resultMeta   `json:"result,omitempty"`
	Sections []sectionMeta `json:"sections"`
}

// segWriter accumulates named sections, then writes the segment via the
// crash-safe temp + fsync + rename protocol.
type segWriter struct {
	meta     segMeta
	payloads [][]byte
}

func (w *segWriter) add(name string, payload []byte) {
	w.meta.Sections = append(w.meta.Sections, sectionMeta{
		Name: name,
		Len:  int64(len(payload)),
		CRC:  crc32.ChecksumIEEE(payload),
	})
	w.payloads = append(w.payloads, payload)
}

// writeTo writes the finished segment to path atomically: the bytes land in
// path+".tmp", are fsynced, and only then renamed over path; the directory
// entry is fsynced last. A crash at any point leaves either no file or a
// *.tmp orphan (swept at Open), never a half-visible segment.
func (w *segWriter) writeTo(path string) (int64, error) {
	off := int64(pageSize)
	for i := range w.meta.Sections {
		w.meta.Sections[i].Off = off
		off += w.meta.Sections[i].Len
		off = (off + pageSize - 1) / pageSize * pageSize
	}
	metaJSON, err := json.Marshal(&w.meta)
	if err != nil {
		return 0, err
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	bw := bufio.NewWriterSize(f, 1<<20)
	pos := int64(0)
	pad := func(to int64) error {
		var zeros [pageSize]byte
		for pos < to {
			n := to - pos
			if n > pageSize {
				n = pageSize
			}
			if _, err := bw.Write(zeros[:n]); err != nil {
				return err
			}
			pos += n
		}
		return nil
	}
	write := func(b []byte) error {
		_, err := bw.Write(b)
		pos += int64(len(b))
		return err
	}
	err = write([]byte(segMagic))
	for i, p := range w.payloads {
		if err != nil {
			break
		}
		if err = pad(w.meta.Sections[i].Off); err == nil {
			err = write(p)
		}
	}
	if err == nil {
		err = pad(off)
	}
	if err == nil {
		err = write(metaJSON)
	}
	if err == nil {
		var trailer [12]byte
		binary.LittleEndian.PutUint32(trailer[:4], uint32(len(metaJSON)))
		copy(trailer[4:], segMagic)
		err = write(trailer[:])
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("diskstore: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	if err := fsyncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return pos, nil
}

// mapSegment is how openSegment brings a segment's bytes in: the platform
// mmap on unix, the whole-file read fallback elsewhere. It is a variable so
// tests on unix can swap in readFileFallback and exercise the portable path
// without a cross-compile.
var mapSegment = mmapFile

// segment is an open, mapped segment file.
type segment struct {
	path  string
	data  []byte
	meta  segMeta
	unmap func() error
}

// openSegment maps path and parses + validates its directory. Directory-like
// sections (offset arrays, run directories, group counts — everything a
// loader will index blindly into) are CRC-verified immediately; bulk payload
// sections are verified only under full=true (tests, explicit verification)
// so opening a large segment does not page the whole file in.
func openSegment(path string, full bool) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+12 {
		return nil, corruptf(path, "file too small (%d bytes)", size)
	}
	data, unmap, err := mapSegment(f, size)
	if err != nil {
		return nil, fmt.Errorf("diskstore: map %s: %w", filepath.Base(path), err)
	}
	s := &segment{path: path, data: data, unmap: unmap}
	if err := s.parse(full); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *segment) parse(full bool) error {
	size := int64(len(s.data))
	magic := string(s.data[:len(segMagic)])
	if magic != segMagic && magic != segMagicV1 {
		return corruptf(s.path, "bad magic")
	}
	if string(s.data[size-8:]) != magic {
		return corruptf(s.path, "bad trailer magic (torn write?)")
	}
	metaLen := int64(binary.LittleEndian.Uint32(s.data[size-12 : size-8]))
	metaOff := size - 12 - metaLen
	if metaLen <= 0 || metaOff < int64(len(segMagic)) {
		return corruptf(s.path, "directory length %d out of bounds", metaLen)
	}
	if err := json.Unmarshal(s.data[metaOff:size-12], &s.meta); err != nil {
		return corruptf(s.path, "directory does not parse: %v", err)
	}
	if magic == segMagicV1 && s.meta.Kind != "relation" {
		return corruptf(s.path, "format v1 %s segment: its lineage chunks predate chunk format v2", s.meta.Kind)
	}
	for _, sec := range s.meta.Sections {
		if sec.Off < pageSize || sec.Len < 0 || sec.Off+sec.Len > metaOff {
			return corruptf(s.path, "section %q [%d,+%d) out of bounds", sec.Name, sec.Off, sec.Len)
		}
		if sec.Off%8 != 0 {
			return corruptf(s.path, "section %q misaligned at offset %d", sec.Name, sec.Off)
		}
		if full || directorySection(sec.Name) {
			if got := crc32.ChecksumIEEE(s.data[sec.Off : sec.Off+sec.Len]); got != sec.CRC {
				return corruptf(s.path, "section %q checksum mismatch", sec.Name)
			}
		}
	}
	return nil
}

// directorySection reports whether a section is indexed blindly by a loader
// (and therefore must be verified at open time). Payload sections — column
// data, chunk bytes — are walked through bounds-checked cursors and can
// defer verification.
func directorySection(name string) bool {
	return strings.HasSuffix(name, ".offs") || strings.HasSuffix(name, ".starts") ||
		strings.HasSuffix(name, ".seq") || strings.HasSuffix(name, ".vals") ||
		strings.HasSuffix(name, ".words") || strings.HasSuffix(name, ".gc")
}

func (s *segment) close() {
	if s.unmap != nil {
		_ = s.unmap()
		s.unmap = nil
	}
}

func (s *segment) section(name string) ([]byte, error) {
	if b, ok := s.lookup(name); ok {
		return b, nil
	}
	return nil, corruptf(s.path, "missing section %q", name)
}

// lookup returns the named section's bytes, or false when the segment has no
// such section (for the optional ones).
func (s *segment) lookup(name string) ([]byte, bool) {
	for _, sec := range s.meta.Sections {
		if sec.Name == name {
			return s.data[sec.Off : sec.Off+sec.Len], true
		}
	}
	return nil, false
}

func corruptf(path, format string, args ...any) error {
	return serr.New(serr.Internal, "diskstore: %s: "+format,
		append([]any{filepath.Base(path)}, args...)...)
}

// ---- typed views over mapped bytes ----

// word is an element type a section holds.
type word interface {
	int64 | float64 | int32 | uint64 | uint32 | bool
}

// asSlice views b as elements of T. A section starts at an 8-byte-aligned
// offset of a page-aligned mapping (parse rejects any other offset), which
// is the precondition that keeps the cast aligned for every T. The view
// aliases the mapping: zero copies, valid until Store.Close unmaps.
func asSlice[T word](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(zero)))
}

// bytesOf views v's storage as bytes, with no copy.
func bytesOf[T word](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}

// ---- relation sections ----

func relMetaOf(rel *storage.Relation) relMeta {
	m := relMeta{Name: rel.Name, N: rel.N, Fields: make([]fieldMeta, len(rel.Schema))}
	for i, f := range rel.Schema {
		m.Fields[i] = fieldMeta{Name: f.Name, Type: uint8(f.Type)}
	}
	return m
}

// addRelationSections emits one section per fixed-width column and an
// offs+bytes pair per string column, all under prefix.
func addRelationSections(w *segWriter, prefix string, rel *storage.Relation) {
	for i, f := range rel.Schema {
		name := fmt.Sprintf("%scol%d", prefix, i)
		switch f.Type {
		case storage.TInt:
			w.add(name, bytesOf(rel.Cols[i].Ints))
		case storage.TFloat:
			w.add(name, bytesOf(rel.Cols[i].Floats))
		case storage.TString:
			offs := make([]uint32, len(rel.Cols[i].Strs)+1)
			total := 0
			for j, s := range rel.Cols[i].Strs {
				total += len(s)
				offs[j+1] = uint32(total)
			}
			bytes := make([]byte, 0, total)
			for _, s := range rel.Cols[i].Strs {
				bytes = append(bytes, s...)
			}
			w.add(name+".offs", bytesOf(offs))
			w.add(name+".bytes", bytes)
		}
	}
}

// loadRelation reconstructs a relation whose fixed-width columns alias the
// mapping directly. String columns allocate the []string headers (16 bytes a
// row) but the character data itself stays mapped (unsafe.String views).
func loadRelation(seg *segment, prefix string, m relMeta) (*storage.Relation, error) {
	rel := &storage.Relation{
		Name:   m.Name,
		N:      m.N,
		Schema: make(storage.Schema, len(m.Fields)),
		Cols:   make([]storage.Column, len(m.Fields)),
	}
	for i, f := range m.Fields {
		rel.Schema[i] = storage.Field{Name: f.Name, Type: storage.Type(f.Type)}
		name := fmt.Sprintf("%scol%d", prefix, i)
		switch storage.Type(f.Type) {
		case storage.TInt:
			b, err := seg.section(name)
			if err != nil {
				return nil, err
			}
			if len(b) != 8*m.N {
				return nil, corruptf(seg.path, "column %q has %d bytes, want %d", name, len(b), 8*m.N)
			}
			rel.Cols[i].Ints = asSlice[int64](b)
		case storage.TFloat:
			b, err := seg.section(name)
			if err != nil {
				return nil, err
			}
			if len(b) != 8*m.N {
				return nil, corruptf(seg.path, "column %q has %d bytes, want %d", name, len(b), 8*m.N)
			}
			rel.Cols[i].Floats = asSlice[float64](b)
		case storage.TString:
			ob, err := seg.section(name + ".offs")
			if err != nil {
				return nil, err
			}
			sb, err := seg.section(name + ".bytes")
			if err != nil {
				return nil, err
			}
			offs := asSlice[uint32](ob)
			if len(offs) != m.N+1 || (m.N > 0 && offs[0] != 0) {
				return nil, corruptf(seg.path, "column %q offset directory malformed", name)
			}
			strs := make([]string, m.N)
			for j := 0; j < m.N; j++ {
				lo, hi := offs[j], offs[j+1]
				if hi < lo || int(hi) > len(sb) {
					return nil, corruptf(seg.path, "column %q offsets out of bounds at row %d", name, j)
				}
				if lo != hi {
					strs[j] = unsafe.String(&sb[lo], int(hi-lo))
				}
			}
			rel.Cols[i].Strs = strs
		default:
			return nil, corruptf(seg.path, "column %q has unknown type %d", name, f.Type)
		}
	}
	return rel, nil
}

// ---- lineage index sections ----

// addIndexSections persists ix under prefix and returns its directory entry.
// Raw 1-to-N indexes are converted to the chunked encoding first: the
// encoded form is the on-disk representation (and what a promoted result
// traces in situ). Forward 1-to-1 indexes go through the same chooser a
// compressed capture uses (lineage.EncodeForward), so a raw forward array is
// written packed, as a run directory, or raw, whichever is smallest.
func addIndexSections(w *segWriter, prefix, rel, dir string, ix *lineage.Index) indexMeta {
	if dir == "fw" {
		ix = lineage.EncodeForward(ix)
	} else if ix.Kind == lineage.OneToMany {
		ix = lineage.EncodeIndex(ix)
	}
	m := indexMeta{Sec: prefix, Rel: rel, Dir: dir, N: ix.Len()}
	switch ix.Kind {
	case lineage.OneToOne:
		m.Kind = "arr"
		w.add(prefix+".arr", bytesOf(ix.Arr))
	case lineage.EncodedOne:
		m.Kind = "encarr"
		n, starts, vals, seq := ix.EncArr.Parts()
		m.N = n
		w.add(prefix+".starts", bytesOf(starts))
		w.add(prefix+".vals", bytesOf(vals))
		w.add(prefix+".seq", bytesOf(seq))
	case lineage.EncodedMany:
		m.Kind = "encmany"
		_, words, offs, data, card := ix.Enc.Parts()
		m.Card = card
		if words != nil {
			w.add(prefix+".words", bytesOf(words))
		}
		w.add(prefix+".offs", bytesOf(offs))
		w.add(prefix+".data", data)
	case lineage.SparseOne:
		m.Kind = "sparse"
		_, words, bits, sentinel, vals := ix.Sparse.Parts()
		if bits != 32 { // absent: the 32-bit layout every writer shares
			m.Bits, m.Sentinel = bits, sentinel
		}
		if words != nil {
			w.add(prefix+".words", bytesOf(words))
		}
		w.add(prefix+".vals", vals)
	}
	return m
}

// loadWords returns an index's optional ".words" presence bitmap over n
// entries: nil when the section is absent, non-nil (possibly empty) when it
// is present.
func loadWords(seg *segment, prefix string, n int) ([]uint64, error) {
	wb, ok := seg.lookup(prefix + ".words")
	if !ok {
		return nil, nil
	}
	if len(wb) != 8*((n+63)/64) {
		return nil, corruptf(seg.path, "index %q bitmap has %d bytes for %d entries", prefix, len(wb), n)
	}
	if words := asSlice[uint64](wb); words != nil {
		return words, nil
	}
	return []uint64{}, nil // a present bitmap over no entries
}

// loadIndex reconstructs a lineage index over the mapping; the encoded forms
// wrap the mapped bytes via FromParts, so traces iterate disk pages directly.
// bound is the number of records a 1-to-1 index's values point at (the
// output relation's for a forward index, the base relation's for a backward
// one): a value at or past it would index past that relation in a trace, so
// it is a corrupt segment even when its checksum matches.
func loadIndex(seg *segment, prefix string, m indexMeta, bound int) (*lineage.Index, error) {
	switch m.Kind {
	case "arr":
		b, err := seg.section(prefix + ".arr")
		if err != nil {
			return nil, err
		}
		arr := asSlice[int32](b)
		if len(arr) != m.N {
			return nil, corruptf(seg.path, "index %q has %d entries, want %d", prefix, len(arr), m.N)
		}
		for i, v := range arr {
			if v < -1 || int64(v) >= int64(bound) {
				return nil, corruptf(seg.path, "index %q entry %d is %d, outside [-1, %d)", prefix, i, v, bound)
			}
		}
		return lineage.NewOneToOne(arr), nil
	case "encarr":
		sb, err := seg.section(prefix + ".starts")
		if err != nil {
			return nil, err
		}
		vb, err := seg.section(prefix + ".vals")
		if err != nil {
			return nil, err
		}
		qb, err := seg.section(prefix + ".seq")
		if err != nil {
			return nil, err
		}
		e, err := lineage.EncodedArrFromParts(m.N, asSlice[int32](sb), asSlice[int32](vb), asSlice[bool](qb), bound)
		if err != nil {
			return nil, fmt.Errorf("%s: index %q: %w", filepath.Base(seg.path), prefix, err)
		}
		return lineage.NewEncodedOne(e), nil
	case "encmany":
		words, err := loadWords(seg, prefix, m.N)
		if err != nil {
			return nil, err
		}
		ob, err := seg.section(prefix + ".offs")
		if err != nil {
			return nil, err
		}
		db, err := seg.section(prefix + ".data")
		if err != nil {
			return nil, err
		}
		e, err := lineage.EncodedIndexFromParts(m.N, words, asSlice[uint32](ob), db, m.Card)
		if err != nil {
			return nil, fmt.Errorf("%s: index %q: %w", filepath.Base(seg.path), prefix, err)
		}
		return lineage.NewEncodedMany(e), nil
	case "sparse":
		words, err := loadWords(seg, prefix, m.N)
		if err != nil {
			return nil, err
		}
		vb, err := seg.section(prefix + ".vals")
		if err != nil {
			return nil, err
		}
		bits, sentinel := m.Bits, m.Sentinel
		if bits == 0 { // an older writer's byte-wide slots
			switch m.Width {
			case 0:
				bits, sentinel = 32, true
			case 1, 2, 4:
				bits, sentinel = 8*m.Width, true
			default:
				return nil, corruptf(seg.path, "index %q slot width %d is not 1, 2 or 4", prefix, m.Width)
			}
		}
		s, err := lineage.SparseArrFromParts(m.N, words, bits, sentinel, vb, bound)
		if err != nil {
			return nil, fmt.Errorf("%s: index %q: %w", filepath.Base(seg.path), prefix, err)
		}
		return lineage.NewSparseOne(s), nil
	}
	return nil, corruptf(seg.path, "index %q has unknown kind %q", prefix, m.Kind)
}
