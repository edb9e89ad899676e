package device

// This file implements the Section 3.3 memory-hierarchy model: the
// paper argues that as cloudlet data indexes grow to gigabytes, a
// three-tier hierarchy (DRAM + PCM + NAND) beats the two-tier
// DRAM + NAND design because indexes kept in byte-addressable PCM are
// instantly available at boot instead of being streamed out of NAND.

import (
	"fmt"
	"time"
)

// Tier identifies a level of the device memory hierarchy.
type Tier int

const (
	// DRAM is fast volatile main memory.
	DRAM Tier = iota
	// PCM is byte-addressable non-volatile storage-class memory,
	// slower than DRAM but far faster than NAND.
	PCM
	// NAND is bulk flash storage.
	NAND
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case DRAM:
		return "DRAM"
	case PCM:
		return "PCM"
	case NAND:
		return "NAND"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// IndexPlacement describes where cloudlet indexes live across power
// cycles, determining the boot-time cost of making them usable.
type IndexPlacement int

const (
	// TwoTier keeps indexes in DRAM at runtime and commits them to
	// NAND across power cycles: every boot streams them back.
	TwoTier IndexPlacement = iota
	// ThreeTier keeps indexes in PCM: non-volatile, so boot pays no
	// reload; index accesses run at PCM speed unless cached in DRAM.
	ThreeTier
)

// String implements fmt.Stringer.
func (p IndexPlacement) String() string {
	if p == ThreeTier {
		return "three-tier (DRAM+PCM+NAND)"
	}
	return "two-tier (DRAM+NAND)"
}

// BootIndexLoad models the time to make an index of the given size
// usable after a power cycle under the given placement.
func (d *Device) BootIndexLoad(indexBytes int64, p IndexPlacement) time.Duration {
	switch p {
	case ThreeTier:
		// The index is already resident in non-volatile PCM; boot
		// only validates a header (one PCM line read, effectively 0).
		return 0
	default:
		// Stream the index out of NAND into DRAM.
		return d.p.Flash.FileOpenLatency + d.nandStream(indexBytes)
	}
}

// nandStream returns the time to sequentially read n bytes from NAND
// at page granularity.
func (d *Device) nandStream(n int64) time.Duration {
	p := &d.p.Flash
	pages := (n + int64(p.PageSize) - 1) / int64(p.PageSize)
	return time.Duration(pages) * p.PageReadLatency
}

// IndexAccess models one index probe of the given size at runtime for
// the tier the index resides in.
func (d *Device) IndexAccess(bytes int, t Tier) time.Duration {
	switch t {
	case DRAM:
		return time.Duration(float64(bytes) / d.p.Config.DRAMBandwidth * float64(time.Second))
	case PCM:
		return time.Duration(float64(bytes) / d.p.Config.PCMBandwidth * float64(time.Second))
	default:
		return d.p.Flash.FileOpenLatency + d.nandStream(int64(bytes))
	}
}
