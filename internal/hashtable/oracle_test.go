package hashtable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// refTable is the table as it was before the slab layout: a map from
// query hash to an ordered chain of entries, each owning its own refs
// slice. It is kept, test-only, as the oracle the slab table is held to
// (TestTableMatchesOracle, FuzzTableOps): the two must agree on every
// observable after every operation.
type refTable struct {
	slots    int
	entries  map[uint64][]refEntry
	refCount int
}

type refEntry struct {
	refs  []SearchRef
	flags uint64
}

func newRefTable(slots int) *refTable {
	return &refTable{slots: slots, entries: make(map[uint64][]refEntry)}
}

func (t *refTable) NumQueries() int { return len(t.entries) }

func (t *refTable) NumEntries() int {
	n := 0
	for _, chain := range t.entries {
		n += len(chain)
	}
	return n
}

func (t *refTable) NumRefs() int { return t.refCount }

func (t *refTable) FootprintBytes() int64 {
	return int64(t.NumEntries()) * int64(EntryBytes(t.slots))
}

func (t *refTable) LookupInto(queryHash uint64, buf []SearchRef) []SearchRef {
	chain, ok := t.entries[queryHash]
	if !ok {
		return nil
	}
	return refSortedRefs(chain, buf)
}

func refSortedRefs(chain []refEntry, buf []SearchRef) []SearchRef {
	refs := buf[:0]
	for _, e := range chain {
		refs = append(refs, e.refs...)
	}
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refLess(refs[j], refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	return refs
}

type refProbe struct {
	chain  []refEntry
	ei, si int
}

func (t *refTable) Probe(queryHash, resultHash uint64) (refProbe, bool) {
	chain := t.entries[queryHash]
	for ei := range chain {
		for si, r := range chain[ei].refs {
			if r.ResultHash == resultHash {
				return refProbe{chain: chain, ei: ei, si: si}, true
			}
		}
	}
	return refProbe{}, false
}

func (p refProbe) Refs(buf []SearchRef) []SearchRef { return refSortedRefs(p.chain, buf) }

func (p refProbe) Click(decay float64) float64 {
	for ei := range p.chain {
		refs := p.chain[ei].refs
		for si := range refs {
			if ei == p.ei && si == p.si {
				refs[si].Score++
			} else {
				refs[si].Score *= decay
			}
		}
	}
	return p.chain[p.ei].refs[p.si].Score
}

func (p refProbe) MarkAccessed() { p.chain[p.ei].flags |= accessedBit << uint(p.si) }

func (t *refTable) Put(queryHash uint64, ref SearchRef) {
	if p, ok := t.Probe(queryHash, ref.ResultHash); ok {
		p.chain[p.ei].refs[p.si].Score = ref.Score
		return
	}
	chain := t.entries[queryHash]
	for i := range chain {
		if len(chain[i].refs) < t.slots {
			chain[i].refs = append(chain[i].refs, ref)
			t.refCount++
			return
		}
	}
	t.entries[queryHash] = append(chain, refEntry{refs: append(make([]SearchRef, 0, t.slots), ref)})
	t.refCount++
}

func (t *refTable) SetScore(queryHash, resultHash uint64, score float64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	if ok {
		p.chain[p.ei].refs[p.si].Score = score
	}
	return ok
}

func (t *refTable) MarkAccessed(queryHash, resultHash uint64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	if ok {
		p.MarkAccessed()
	}
	return ok
}

func (t *refTable) Remove(queryHash, resultHash uint64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	if !ok {
		return false
	}
	chain, ei, si := p.chain, p.ei, p.si
	e := &chain[ei]
	copy(e.refs[si:], e.refs[si+1:])
	e.refs = e.refs[:len(e.refs)-1]
	low := e.flags & ((1 << uint(si)) - 1)
	high := (e.flags >> uint(si+1)) << uint(si)
	e.flags = low | high
	t.refCount--
	if len(e.refs) == 0 {
		chain = append(chain[:ei], chain[ei+1:]...)
	}
	if len(chain) == 0 {
		delete(t.entries, queryHash)
	} else {
		t.entries[queryHash] = chain
	}
	return true
}

func (t *refTable) RemoveResult(resultHash uint64) int {
	var victims []uint64
	for qh, chain := range t.entries {
		for _, e := range chain {
			for _, ref := range e.refs {
				if ref.ResultHash == resultHash {
					victims = append(victims, qh)
				}
			}
		}
	}
	for _, qh := range victims {
		t.Remove(qh, resultHash)
	}
	return len(victims)
}

func (t *refTable) Pairs() []Pair {
	out := make([]Pair, 0, t.refCount)
	for qh, chain := range t.entries {
		for _, e := range chain {
			for si, r := range e.refs {
				out = append(out, Pair{QueryHash: qh, ResultHash: r.ResultHash, Score: r.Score,
					Accessed: e.flags&(accessedBit<<uint(si)) != 0})
			}
		}
	}
	slices.SortFunc(out, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.QueryHash, b.QueryHash), cmp.Compare(a.ResultHash, b.ResultHash))
	})
	return out
}

func refFromPairs(slots int, pairs []Pair) *refTable {
	t := newRefTable(slots)
	t.refCount = len(pairs)
	for len(pairs) > 0 {
		run := pairs[:queryRun(pairs)]
		chain := make([]refEntry, (len(run)+slots-1)/slots)
		for k, p := range run {
			e := &chain[k/slots]
			if e.refs == nil {
				e.refs = make([]SearchRef, 0, slots)
			}
			e.refs = append(e.refs, SearchRef{ResultHash: p.ResultHash, Score: p.Score})
			if p.Accessed {
				e.flags |= accessedBit << uint(k%slots)
			}
		}
		t.entries[run[0].QueryHash] = chain
		pairs = pairs[len(run):]
	}
	return t
}

func (t *refTable) Encode(w io.Writer) error {
	pairs := t.Pairs()
	var buf [25]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(t.slots))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(pairs)))
	if _, err := w.Write(buf[:16]); err != nil {
		return err
	}
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[:8], p.QueryHash)
		binary.LittleEndian.PutUint64(buf[8:16], p.ResultHash)
		binary.LittleEndian.PutUint64(buf[16:24], floatBits(p.Score))
		buf[24] = 0
		if p.Accessed {
			buf[24] = 1
		}
		if _, err := w.Write(buf[:25]); err != nil {
			return err
		}
	}
	return nil
}

// refDecode is Decode over the oracle; the caller has already checked
// the header (Decode's own validation is under test).
func refDecode(r io.Reader) (*refTable, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	t := newRefTable(int(binary.LittleEndian.Uint64(hdr[:8])))
	n := binary.LittleEndian.Uint64(hdr[8:16])
	var buf [25]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		qh := binary.LittleEndian.Uint64(buf[:8])
		rh := binary.LittleEndian.Uint64(buf[8:16])
		t.Put(qh, SearchRef{ResultHash: rh, Score: bitsFloat(binary.LittleEndian.Uint64(buf[16:24]))})
		if buf[24] != 0 {
			t.MarkAccessed(qh, rh)
		}
	}
	return t, nil
}
