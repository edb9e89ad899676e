package engine

import (
	"bytes"
	"sync"

	"pocketcloudlets/internal/searchlog"
)

// recordTable renders each result's record once and hands every later
// request the same bytes (Engine.WithSharedRecords). It is lock-striped
// by result ID, so shards expanding their users' caches concurrently
// seldom meet on a lock, and it holds nothing the collector must trace
// record by record: the records sit in pointer-free arena chunks, and
// each stripe indexes them with a pointer-free map.
type recordTable struct {
	u       *Universe
	stripes [recordStripes]recordStripe
}

const (
	recordStripes = 32
	// A stripe's arena chunks double from recordChunkMin to recordChunk,
	// so a table holding a few records costs a few kilobytes and a full
	// one wastes under half a chunk a stripe. A record longer than
	// recordChunk (the universe renders none) is not shared.
	recordChunkMin = 1 << 10
	recordChunk    = 16 << 10
)

// recordStripe is one lock's share of the table, padded to two cache
// lines so neighbouring stripes' locks never share one.
type recordStripe struct {
	mu     sync.Mutex
	at     map[searchlog.ResultID]recordLoc
	chunks [][]byte
	_      [88]byte
}

// recordLoc is where a rendered record sits in its stripe's arena.
type recordLoc struct {
	chunk uint32
	off   uint16
	n     uint16
}

// record returns result r's shared rendering, rendering it on first
// request. The slice's capacity ends with the record.
func (t *recordTable) record(r searchlog.ResultID) []byte {
	s := &t.stripes[uint32(r)%recordStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.at[r]
	if !ok {
		var a [1 << 10]byte
		rec := t.u.appendRecord(a[:0], r)
		if len(rec) > recordChunk {
			return bytes.Clone(rec)
		}
		loc = s.add(rec)
		if s.at == nil {
			s.at = make(map[searchlog.ResultID]recordLoc)
		}
		s.at[r] = loc
	}
	end := int(loc.off) + int(loc.n)
	return s.chunks[loc.chunk][loc.off:end:end]
}

// add copies rec into the stripe's arena, opening a chunk twice the
// last one's size when the current one cannot take it whole.
func (s *recordStripe) add(rec []byte) recordLoc {
	n := len(s.chunks)
	if n == 0 || cap(s.chunks[n-1])-len(s.chunks[n-1]) < len(rec) {
		size := recordChunkMin
		if n > 0 {
			size = min(2*cap(s.chunks[n-1]), recordChunk)
		}
		s.chunks = append(s.chunks, make([]byte, 0, max(size, len(rec))))
		n++
	}
	c := s.chunks[n-1]
	s.chunks[n-1] = append(c, rec...)
	return recordLoc{chunk: uint32(n - 1), off: uint16(len(c)), n: uint16(len(rec))}
}
