// Package hashtable implements the DRAM query hash table of Section
// 5.2.1 of the Pocket Cloudlets paper (Figure 10): the in-memory index
// that links query hashes to search results stored in the flash
// database.
//
// Every entry corresponds to exactly one query and holds a fixed number
// of search-result slots (two in the paper's design — the
// footprint-optimal choice explored in Figure 11), each a pair of
// (web-address hash, ranking score), plus a 64-bit flags word. Queries
// with more results than slots chain additional entries, which the
// paper creates "by properly setting the second argument of the hash
// function".
//
// The entries are modeled, not stored. A table is one slab of 32-byte
// nodes, one per stored (query, result) pair — the query hash, the
// pair's SearchRef, the link to the next node of the query's chain, and
// a tag holding the pair's accessed bit and the ordinal of the modeled
// entry that holds it — plus an open-addressed index of each chain's
// first node. A chain runs in ascending ordinal, each entry's pairs in
// slot order, so pairs are placed, ordered and counted exactly as in
// the paper's flat array of slot blocks (NumEntries and FootprintBytes
// count modeled entries) without a reserved slot that no pair uses.
// Nodes freed by Remove go on a free list that the next new pair
// reuses. Nothing in the slab or the index holds a pointer, so the
// collector traces a table's two headers however many queries it
// indexes, and the slab grows by an eighth (internal/slab), not by
// doubling, so a per-user table carries little slack.
// TestSlabsHoldNoPointers keeps it that way.
package hashtable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"pocketcloudlets/internal/slab"
)

// SearchRef is one search-result slot: the hash of the result's web
// address (which doubles as the database key) and its ranking score.
type SearchRef struct {
	ResultHash uint64
	Score      float64
}

// node is one stored (query, result) pair.
type node struct {
	// query is the hash of the query whose chain holds the pair.
	query uint64
	ref   SearchRef
	// next is the slab index of the chain's next node (the next free
	// node while on the free list), or none.
	next int32
	// tag is the pair's accessed bit (accessedBit) and, above it, the
	// ordinal of its modeled entry in the chain — 0 for the first entry,
	// dense to the last — or freeTag on the free list.
	tag uint32
}

// ordinal is the node's modeled entry within its chain.
func (n *node) ordinal() uint32 { return n.tag >> ordShift }

const (
	// none ends a chain or the free list.
	none = -1
	// accessedBit is set when the user has accessed the pair — the
	// pair's bit of its modeled entry's flags word, which the paper
	// reserves otherwise for future use.
	accessedBit = 1
	// ordShift places the entry ordinal above the accessed bit.
	ordShift = 1
	// freeTag marks a node on the free list. No live tag reaches it: an
	// ordinal is below the slab's length, which an int32 index bounds.
	freeTag = ^uint32(0)
)

// MaxSlotsPerEntry is the most slots an entry can have: one accessed
// bit per slot in the modeled 64-bit flags word.
const MaxSlotsPerEntry = 64

// Table is the query hash table.
type Table struct {
	slots int
	// heads is the index of chain heads, open-addressed with linear
	// probing: a slot holds one plus the slab index of a chain's first
	// node, or zero when empty, and a query's probe starts at its home
	// slot. Its length is zero or a power of two, at most three quarters
	// full.
	heads   []int32
	queries int
	nodes   []node
	// free is the first node of the free list, or none.
	free int32
	// numEntries and refCount count modeled entries and stored pairs for
	// O(1) stats.
	numEntries int
	refCount   int
}

// New creates a table with the given number of search-result slots per
// entry. The paper's design uses two; Figure 11 sweeps 1..6.
func New(slotsPerEntry int) (*Table, error) {
	if slotsPerEntry < 1 || slotsPerEntry > MaxSlotsPerEntry {
		return nil, fmt.Errorf("hashtable: slots per entry must be in [1, %d], got %d", MaxSlotsPerEntry, slotsPerEntry)
	}
	return &Table{slots: slotsPerEntry, free: none}, nil
}

// MustNew is New for known-good slot counts.
func MustNew(slotsPerEntry int) *Table {
	t, err := New(slotsPerEntry)
	if err != nil {
		panic(err)
	}
	return t
}

// SlotsPerEntry returns the configured slot count.
func (t *Table) SlotsPerEntry() int { return t.slots }

// NumQueries returns the number of distinct query hashes present.
func (t *Table) NumQueries() int { return t.queries }

// NumEntries returns the total number of entries including chained ones.
func (t *Table) NumEntries() int { return t.numEntries }

// NumRefs returns the total number of stored search references.
func (t *Table) NumRefs() int { return t.refCount }

// home is a query's first probe slot: the top bits of its hash times
// 2^64/φ, so nearby hashes land far apart.
func (t *Table) home(queryHash uint64) int {
	return int((queryHash * 0x9e3779b97f4a7c15) >> (64 - bits.Len(uint(len(t.heads)-1))))
}

// slot is the index slot holding queryHash's chain head, or the empty
// slot where the probe for it ends.
func (t *Table) slot(queryHash uint64) int {
	mask := len(t.heads) - 1
	s := t.home(queryHash)
	for t.heads[s] != 0 && t.nodes[t.heads[s]-1].query != queryHash {
		s = (s + 1) & mask
	}
	return s
}

// head returns the first node of queryHash's chain.
func (t *Table) head(queryHash uint64) (int32, bool) {
	if t.queries == 0 {
		return none, false
	}
	h := t.heads[t.slot(queryHash)]
	return h - 1, h != 0
}

// addHead indexes n as the first node of its query's new chain.
func (t *Table) addHead(n int32) {
	if 4*(t.queries+1) > 3*len(t.heads) {
		t.rehash(t.queries + 1)
	}
	t.heads[t.slot(t.nodes[n].query)] = n + 1
	t.queries++
}

// rehash rebuilds the index with room for n chains.
func (t *Table) rehash(n int) {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	old := t.heads
	t.heads = make([]int32, size)
	for _, h := range old {
		if h != 0 {
			t.heads[t.slot(t.nodes[h-1].query)] = h
		}
	}
}

// dropHead removes queryHash's chain from the index. The heads after it
// in its probe run move back over the hole when their probe starts at
// or before it, so no probe ever crosses an empty slot to reach its key.
func (t *Table) dropHead(queryHash uint64) {
	mask := len(t.heads) - 1
	hole := t.slot(queryHash)
	t.heads[hole] = 0
	t.queries--
	for s := (hole + 1) & mask; t.heads[s] != 0; s = (s + 1) & mask {
		if (s-t.home(t.nodes[t.heads[s]-1].query))&mask >= (s-hole)&mask {
			t.heads[hole], t.heads[s] = t.heads[s], 0
			hole = s
		}
	}
}

// Contains reports whether the query hash has an entry — the cache
// hit/miss test. On the paper's prototype this lookup costs ~10 µs and
// is therefore negligible on both the hit and the miss path (Table 4).
func (t *Table) Contains(queryHash uint64) bool {
	_, ok := t.head(queryHash)
	return ok
}

// Lookup returns the search references of a query ordered by
// descending score (ties broken by result hash for determinism).
// It returns nil for a miss.
func (t *Table) Lookup(queryHash uint64) []SearchRef {
	return t.LookupInto(queryHash, nil)
}

// LookupInto is Lookup writing into buf (reused when its capacity
// suffices), so steady-state callers can keep the serve path
// allocation-free. The returned slice aliases buf's backing array and
// is only valid until the next LookupInto with the same buffer. The
// order is identical to Lookup's: descending score, ties broken by
// ascending result hash.
func (t *Table) LookupInto(queryHash uint64, buf []SearchRef) []SearchRef {
	head, ok := t.head(queryHash)
	if !ok {
		return nil
	}
	return t.sortedRefs(head, buf)
}

// sortedRefs collects the refs of the chain starting at head into buf in
// Lookup order.
func (t *Table) sortedRefs(head int32, buf []SearchRef) []SearchRef {
	refs := buf[:0]
	for n := head; n != none; n = t.nodes[n].next {
		refs = append(refs, t.nodes[n].ref)
	}
	// Insertion sort instead of sort.Slice: chains are short (a handful
	// of refs) and sort.Slice's reflection-based closure allocates.
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refLess(refs[j], refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	return refs
}

// refLess is Lookup's total order: descending score, then ascending
// result hash.
func refLess(a, b SearchRef) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ResultHash < b.ResultHash
}

// ContainsRef reports whether the (query, result) pair is stored,
// without allocating — the hit-path form of scanning Lookup's slice.
func (t *Table) ContainsRef(queryHash, resultHash uint64) bool {
	_, ok := t.Probe(queryHash, resultHash)
	return ok
}

// Probe is the position of one stored (query, result) pair: the query's
// chain and the node that holds the pair. A serve that has classified a
// pair as a hit does everything else a hit does to the table — rank the
// query's results, apply the click, set the accessed bit — from the
// position, without looking the query up again.
//
// A Probe is valid until the next Put, Remove or RemoveResult on the
// table it came from; using one after that is a misuse (it may read or
// write a node that now holds another pair). The fleet never does: it
// probes and serves under one shard-lock hold.
type Probe struct {
	t          *Table
	head, node int32
}

// Probe locates the (query, result) pair; ok is false when it is not
// stored.
func (t *Table) Probe(queryHash, resultHash uint64) (p Probe, ok bool) {
	head, ok := t.head(queryHash)
	if !ok {
		return Probe{}, false
	}
	for n := head; n != none; n = t.nodes[n].next {
		if t.nodes[n].ref.ResultHash == resultHash {
			return Probe{t: t, head: head, node: n}, true
		}
	}
	return Probe{}, false
}

// pair returns the probed pair's node.
func (p Probe) pair() *node { return &p.t.nodes[p.node] }

// Refs is Table.LookupInto for the probed pair's query: every result of
// the query in Lookup order, written into buf.
func (p Probe) Refs(buf []SearchRef) []SearchRef { return p.t.sortedRefs(p.head, buf) }

// Click applies Equations 1 and 2 of the paper to the probed pair's
// query in place: the clicked (probed) result's score grows by one and
// every sibling's is multiplied by decay (e^-lambda). It returns the
// clicked result's new score.
func (p Probe) Click(decay float64) float64 {
	nodes := p.t.nodes
	for n := p.head; n != none; n = nodes[n].next {
		if n == p.node {
			nodes[n].ref.Score++
		} else {
			nodes[n].ref.Score *= decay
		}
	}
	return nodes[p.node].ref.Score
}

// MarkAccessed sets the probed pair's accessed flag (Table.MarkAccessed
// without the search).
func (p Probe) MarkAccessed() { p.pair().tag |= accessedBit }

// Score returns the ranking score of a (query, result) pair.
func (t *Table) Score(queryHash, resultHash uint64) (float64, bool) {
	p, ok := t.Probe(queryHash, resultHash)
	if !ok {
		return 0, false
	}
	return p.pair().ref.Score, true
}

// Put inserts or updates the (query, result) pair with the given
// score. A new result goes into the first entry with a free slot, after
// that entry's pairs, or into a new entry chained at the tail when all
// are full.
func (t *Table) Put(queryHash uint64, ref SearchRef) {
	head, ok := t.head(queryHash)
	if !ok {
		t.numEntries++
		t.addHead(t.newNode(node{query: queryHash, ref: ref, next: none}))
		return
	}
	// open is the last node of the first entry with a free slot; run
	// counts the pairs of entry ord, the one the walk is in. tail trails
	// n by a node, so when n opens an entry, tail closes the one before.
	var open, tail int32 = none, none
	run, ord := 0, uint32(0)
	for n := head; n != none; tail, n = n, t.nodes[n].next {
		nd := &t.nodes[n]
		if nd.ref.ResultHash == ref.ResultHash {
			nd.ref.Score = ref.Score
			return
		}
		if nd.ordinal() != ord {
			if open == none && run < t.slots {
				open = tail
			}
			run, ord = 0, nd.ordinal()
		}
		run++
	}
	if open == none && run < t.slots {
		open = tail
	}
	if open == none {
		open, ord = tail, ord+1
		t.numEntries++
	} else {
		ord = t.nodes[open].ordinal()
	}
	n := t.newNode(node{query: queryHash, ref: ref, next: t.nodes[open].next, tag: ord << ordShift})
	t.nodes[open].next = n
}

// newNode stores nd in a free node — the free list's first, or a new
// one at the end of the slab — and returns its index.
func (t *Table) newNode(nd node) int32 {
	t.refCount++
	if n := t.free; n != none {
		t.free = t.nodes[n].next
		t.nodes[n] = nd
		return n
	}
	t.nodes = append(slab.Reserve(t.nodes, 1), nd)
	return int32(len(t.nodes) - 1)
}

// SetScore updates the score of an existing pair.
func (t *Table) SetScore(queryHash, resultHash uint64, score float64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	if ok {
		p.pair().ref.Score = score
	}
	return ok
}

// MarkAccessed sets the pair's accessed flag — the bit the server-side
// cache manager uses to decide which entries to preserve (Section 5.4).
func (t *Table) MarkAccessed(queryHash, resultHash uint64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	if ok {
		p.MarkAccessed()
	}
	return ok
}

// Accessed reports whether the pair's accessed flag is set.
func (t *Table) Accessed(queryHash, resultHash uint64) bool {
	p, ok := t.Probe(queryHash, resultHash)
	return ok && p.pair().tag&accessedBit != 0
}

// Remove deletes the (query, result) pair, dropping its entry when it
// was the entry's last. It reports whether the pair existed.
func (t *Table) Remove(queryHash, resultHash uint64) bool {
	head, ok := t.head(queryHash)
	return ok && t.removeFrom(queryHash, head, resultHash)
}

// RemoveResult deletes every pair that references the given result
// hash (used when a result's record is no longer available). It
// returns the number of pairs removed.
func (t *Table) RemoveResult(resultHash uint64) int {
	removed := 0
	// A query holds a result at most once, and removal frees a node
	// without moving any, so one walk of the slab meets each query
	// holding the result once, at the node that holds it.
	for n := range t.nodes {
		if nd := &t.nodes[n]; nd.tag != freeTag && nd.ref.ResultHash == resultHash {
			qh := nd.query
			head, _ := t.head(qh)
			t.removeFrom(qh, head, resultHash)
			removed++
		}
	}
	return removed
}

// removeFrom removes resultHash from queryHash's chain, which starts at
// head, and reports whether it was there. Its node is unlinked and
// freed — with the query itself when it was the chain's last — and when
// it was the last pair of its entry, the entry goes: the entries after
// it move up one ordinal.
func (t *Table) removeFrom(queryHash uint64, head int32, resultHash uint64) bool {
	prev := int32(none)
	for n := head; n != none; prev, n = n, t.nodes[n].next {
		if t.nodes[n].ref.ResultHash != resultHash {
			continue
		}
		next, ord := t.nodes[n].next, t.nodes[n].ordinal()
		switch {
		case prev != none:
			t.nodes[prev].next = next
		case next != none:
			t.heads[t.slot(queryHash)] = next + 1
		default:
			t.dropHead(queryHash)
		}
		t.nodes[n] = node{next: t.free, tag: freeTag}
		t.free = n
		t.refCount--
		if (prev != none && t.nodes[prev].ordinal() == ord) || (next != none && t.nodes[next].ordinal() == ord) {
			return true
		}
		t.numEntries--
		for m := next; m != none; m = t.nodes[m].next {
			t.nodes[m].tag -= 1 << ordShift
		}
		return true
	}
	return false
}

// Pair is a flattened (query, result) pair with its metadata, used for
// iteration and serialization.
type Pair struct {
	QueryHash  uint64
	ResultHash uint64
	Score      float64
	Accessed   bool
}

// Pairs returns every stored pair in deterministic order (by query
// hash, then result hash).
func (t *Table) Pairs() []Pair {
	out := make([]Pair, 0, t.refCount)
	for _, nd := range t.nodes {
		if nd.tag != freeTag {
			out = append(out, Pair{
				QueryHash:  nd.query,
				ResultHash: nd.ref.ResultHash,
				Score:      nd.ref.Score,
				Accessed:   nd.tag&accessedBit != 0,
			})
		}
	}
	slices.SortFunc(out, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.QueryHash, b.QueryHash), cmp.Compare(a.ResultHash, b.ResultHash))
	})
	return out
}

// FromPairs builds the table Decode builds from the encoding of pairs,
// without the bytes in between: pairs must be as Pairs returns them —
// ordered by (query, result) hash, each at most once — and each query's
// results fill its chain's entries front to back, as Put would have
// placed them: pair k of a query is in entry k/slots. The slab is sized
// exactly. State migration copies a user's table this way (the
// updater's ExportState); EncodedLen sizes the transfer it stands for.
func FromPairs(slotsPerEntry int, pairs []Pair) (*Table, error) {
	t, err := New(slotsPerEntry)
	if err != nil {
		return nil, err
	}
	queries := 0
	for rest := pairs; len(rest) > 0; queries++ {
		rest = rest[queryRun(rest):]
	}
	t.rehash(queries)
	t.nodes = make([]node, len(pairs))
	t.refCount = len(pairs)
	for first := 0; first < len(pairs); {
		run := queryRun(pairs[first:])
		for k, p := range pairs[first : first+run] {
			nd := node{query: p.QueryHash, ref: SearchRef{ResultHash: p.ResultHash, Score: p.Score},
				next: int32(first + k + 1), tag: uint32(k/t.slots) << ordShift}
			if k == run-1 {
				nd.next = none
			}
			if p.Accessed {
				nd.tag |= accessedBit
			}
			t.nodes[first+k] = nd
		}
		t.addHead(int32(first))
		t.numEntries += (run + t.slots - 1) / t.slots
		first += run
	}
	return t, nil
}

// queryRun is the length of the leading run of pairs sharing one query.
func queryRun(pairs []Pair) int {
	n := 1
	for n < len(pairs) && pairs[n].QueryHash == pairs[0].QueryHash {
		n++
	}
	return n
}

// Modeled on-device entry layout (Figure 10): an 8-byte query hash,
// slots x (8-byte result hash + 4-byte score), an 8-byte flags word,
// and an 8-byte chain/bucket link (every practical hash table pays a
// per-entry pointer). With the paper's two slots this is 48 bytes per
// entry — consistent with the paper's own arithmetic of ~200 KB of
// DRAM for the ~4000-entry evaluation cache (Figure 8).
const (
	entryFixedBytes = 8 + 8 + 8 // query hash + flags + chain link
	refBytes        = 8 + 4     // result hash + float32 score
)

// EntryBytes returns the modeled size of one entry with k slots.
func EntryBytes(k int) int { return entryFixedBytes + k*refBytes }

// FootprintBytes returns the modeled DRAM footprint of the table: the
// number of entries (including chained and partially empty ones) times
// the modeled entry size. This is the y-axis of Figures 8 and 11.
func (t *Table) FootprintBytes() int64 {
	return int64(t.NumEntries()) * int64(EntryBytes(t.slots))
}

// EncodedLen is the number of bytes Encode writes for a table of the
// given number of pairs.
func EncodedLen(pairs int) int { return 16 + 25*pairs }

// Encode serializes the table (used when the phone transmits its hash
// table to the server for the Section 5.4 update cycle).
func (t *Table) Encode(w io.Writer) error {
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

// Decode reconstructs a table serialized by Encode. The header's slot
// count is New's to reject (its error is Decode's), and its pair count
// sizes nothing: the table grows with the pairs actually read, so a
// hostile header can claim any count and cost only an error.
func Decode(r io.Reader) (*Table, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("hashtable: decode header: %w", err)
	}
	// A slot count past MaxInt64 converts negative, which New rejects too.
	slots := int(binary.LittleEndian.Uint64(hdr[:8]))
	n := binary.LittleEndian.Uint64(hdr[8:16])
	t, err := New(slots)
	if err != nil {
		return nil, err
	}
	var buf [25]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("hashtable: decode pair %d: %w", i, err)
		}
		qh := binary.LittleEndian.Uint64(buf[:8])
		rh := binary.LittleEndian.Uint64(buf[8:16])
		score := bitsFloat(binary.LittleEndian.Uint64(buf[16:24]))
		t.Put(qh, SearchRef{ResultHash: rh, Score: score})
		if buf[24] != 0 {
			t.MarkAccessed(qh, rh)
		}
	}
	return t, nil
}
