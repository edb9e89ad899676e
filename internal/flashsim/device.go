// Package flashsim models the NAND flash storage of a mobile device:
// page-granularity reads and programs, block-granularity erases, and a
// small file-store layer with cluster-granularity allocation.
//
// The simulator is a timing and capacity model, not a functional FTL:
// operations complete immediately in wall-clock terms but report the
// modeled latency they would take on the device, and the file store
// accounts for the allocation slack ("flash fragmentation" in the
// paper's terms, Section 5.2.2) that storing many small files incurs.
// A layer that keeps its files in a form of its own — the result
// database, internal/resultdb — charges the Device directly and rounds
// each file with Device.AllocatedBytes, as the store does. Both
// quantities drive the paper's Figure 8 (flash overhead of the
// PocketSearch cache) and Figure 12 (retrieval time vs. number of
// database files).
package flashsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Params describes the flash part and the filesystem stack above it.
// Latencies are effective end-to-end values as seen by an application
// on a late-2000s smartphone (the paper's prototype platform), not raw
// chip timings: the filesystem, driver and bus overheads are folded in.
type Params struct {
	// PageSize is the read/program granularity in bytes.
	PageSize int
	// PagesPerBlock is the number of pages per erase block.
	PagesPerBlock int
	// AllocUnit is the filesystem allocation granularity in bytes; a
	// file of any smaller size still occupies one full unit. The paper
	// cites 2, 4 or 8 KB depending on the chip.
	AllocUnit int
	// PageReadLatency is the effective time to read one page through
	// the filesystem stack.
	PageReadLatency time.Duration
	// PageProgramLatency is the effective time to program one page.
	PageProgramLatency time.Duration
	// BlockEraseLatency is the time to erase one block.
	BlockEraseLatency time.Duration
	// FileOpenLatency is the fixed filesystem cost to locate and open
	// a file before any data transfer.
	FileOpenLatency time.Duration
	// JitterFrac, if non-zero, spreads each modeled latency uniformly
	// in [1-JitterFrac, 1+JitterFrac] using the device's seeded source,
	// reproducing the run-to-run deviation bars of Figure 12.
	JitterFrac float64
	// Seed seeds the jitter source; ignored when JitterFrac is zero.
	Seed int64
}

// DefaultParams returns parameters calibrated so that the PocketSearch
// result database reproduces the paper's measured storage behaviour:
// ~10 ms to fetch two search results with a 32-file database (Table 4)
// and a retrieval-time curve over file counts shaped like Figure 12.
func DefaultParams() Params {
	return Params{
		PageSize:           2048,
		PagesPerBlock:      64,
		AllocUnit:          4096,
		PageReadLatency:    150 * time.Microsecond,
		PageProgramLatency: 400 * time.Microsecond,
		BlockEraseLatency:  1500 * time.Microsecond,
		FileOpenLatency:    4 * time.Millisecond,
	}
}

// Stats accumulates operation counts and modeled busy time.
type Stats struct {
	Opens        int64
	PageReads    int64
	PagePrograms int64
	BlockErases  int64
	BytesRead    int64
	BytesWritten int64
	BusyTime     time.Duration
}

// Device is a simulated flash part plus filesystem stack. It reads its
// constants through a pointer, so the devices of one tier share one
// Params (internal/device's Profile).
type Device struct {
	params *Params
	stats  Stats
	jitter *rand.Rand
}

// Resolve returns p with its zero-valued latency and geometry fields
// filled from DefaultParams: the form a device reads.
func (p Params) Resolve() Params {
	def := DefaultParams()
	if p.PageSize <= 0 {
		p.PageSize = def.PageSize
	}
	if p.PagesPerBlock <= 0 {
		p.PagesPerBlock = def.PagesPerBlock
	}
	if p.AllocUnit <= 0 {
		p.AllocUnit = def.AllocUnit
	}
	if p.PageReadLatency <= 0 {
		p.PageReadLatency = def.PageReadLatency
	}
	if p.PageProgramLatency <= 0 {
		p.PageProgramLatency = def.PageProgramLatency
	}
	if p.BlockEraseLatency <= 0 {
		p.BlockEraseLatency = def.BlockEraseLatency
	}
	if p.FileOpenLatency <= 0 {
		p.FileOpenLatency = def.FileOpenLatency
	}
	return p
}

// NewDevice creates a device with the given parameters. Zero-valued
// latency or geometry fields are filled from DefaultParams.
func NewDevice(p Params) *Device {
	r := p.Resolve()
	d := MakeDevice(&r)
	return &d
}

// MakeDevice returns a device, by value for embedding, that reads its
// constants through p: resolved parameters (Params.Resolve) that must
// not change while the device lives.
func MakeDevice(p *Params) Device {
	d := Device{params: p}
	if p.JitterFrac > 0 {
		d.jitter = rand.New(rand.NewSource(p.Seed))
	}
	return d
}

// Params returns the device parameters.
func (d *Device) Params() Params { return *d.params }

// Stats returns a snapshot of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats clears the accumulated statistics.
func (d *Device) ResetStats() { d.stats = Stats{} }

func (d *Device) applyJitter(t time.Duration) time.Duration {
	if d.jitter == nil || t <= 0 {
		return t
	}
	f := 1 + d.params.JitterFrac*(2*d.jitter.Float64()-1)
	return time.Duration(float64(t) * f)
}

func pages(n, pageSize int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + pageSize - 1) / pageSize)
}

// OpenCost models opening a file: the filesystem lookup latency.
func (d *Device) OpenCost() time.Duration {
	t := d.applyJitter(d.params.FileOpenLatency)
	d.stats.Opens++
	d.stats.BusyTime += t
	return t
}

// ReadCost models reading n bytes starting at an arbitrary offset:
// every touched page costs one page read.
func (d *Device) ReadCost(n int) time.Duration {
	p := pages(n, d.params.PageSize)
	t := d.applyJitter(time.Duration(p) * d.params.PageReadLatency)
	d.stats.PageReads += p
	d.stats.BytesRead += int64(max(n, 0))
	d.stats.BusyTime += t
	return t
}

// WriteCost models programming n bytes: every touched page costs one
// page program. Rewrites that would trigger erases are modeled by
// RewriteCost.
func (d *Device) WriteCost(n int) time.Duration {
	p := pages(n, d.params.PageSize)
	t := d.applyJitter(time.Duration(p) * d.params.PageProgramLatency)
	d.stats.PagePrograms += p
	d.stats.BytesWritten += int64(max(n, 0))
	d.stats.BusyTime += t
	return t
}

// RewriteCost models an in-place update of n bytes, which on flash
// requires erasing the blocks that hold them before reprogramming.
func (d *Device) RewriteCost(n int) time.Duration {
	p := pages(n, d.params.PageSize)
	blocks := (p + int64(d.params.PagesPerBlock) - 1) / int64(d.params.PagesPerBlock)
	t := d.applyJitter(time.Duration(blocks)*d.params.BlockEraseLatency +
		time.Duration(p)*d.params.PageProgramLatency)
	d.stats.BlockErases += blocks
	d.stats.PagePrograms += p
	d.stats.BytesWritten += int64(max(n, 0))
	d.stats.BusyTime += t
	return t
}

// AllocatedBytes reports the flash space a file of logicalSize bytes
// actually occupies given the allocation unit: the paper's point that a
// 500-byte search-result file can occupy 4-16x its size.
func (d *Device) AllocatedBytes(logicalSize int) int64 {
	if logicalSize <= 0 {
		return 0
	}
	u := int64(d.params.AllocUnit)
	return (int64(logicalSize) + u - 1) / u * u
}

// String summarizes the device configuration.
func (d *Device) String() string {
	return fmt.Sprintf("flash{page=%dB block=%dp alloc=%dB read=%v program=%v open=%v}",
		d.params.PageSize, d.params.PagesPerBlock, d.params.AllocUnit,
		d.params.PageReadLatency, d.params.PageProgramLatency, d.params.FileOpenLatency)
}
