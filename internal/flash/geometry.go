// Package flash models the NAND subsystem of a solid-state drive: the
// channel/chip/die/plane/block/page hierarchy, the erase-before-write state
// machine, command timing (read, program, erase), and per-channel bus
// bandwidth. It is the bottom substrate of the IceClave simulator, standing
// in for SimpleSSD's device model (paper §5, Table 3).
//
// Concurrency contract: Device has no lock. Its owner serializes every
// call — the FTL holds its one mutex across each device call, and a
// replay owns its whole pooled stack. Snapshot is the exception: stats
// are atomic counters, so it is safe while the owner operates the
// device. Geometry and Timing are plain values.
package flash

import "fmt"

// PPA is a physical page address: the linear index of a page across the
// whole device, in channel-major order. PPAs fit in 32 bits for the scaled
// device sizes the simulator uses, matching the 32-bit PPA the IceClave
// stream cipher engine folds into its IV.
type PPA uint32

// InvalidPPA is a sentinel for "no physical page".
const InvalidPPA = ^PPA(0)

// Geometry describes the physical organization of the flash array. The
// paper's device (Table 3) is 8 channels x 4 chips x 4 dies x 2 planes x
// 2048 blocks x 512 pages x 4 KB = 1 TB; experiments typically scale
// BlocksPerPlane down to keep simulations fast while preserving ratios.
type Geometry struct {
	Channels        int
	ChipsPerChannel int
	DiesPerChip     int
	PlanesPerDie    int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageSize        int // bytes
}

// Validate reports an error if any dimension is non-positive.
func (g Geometry) Validate() error {
	dims := []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"ChipsPerChannel", g.ChipsPerChannel},
		{"DiesPerChip", g.DiesPerChip},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane},
		{"PagesPerBlock", g.PagesPerBlock},
		{"PageSize", g.PageSize},
	}
	for _, d := range dims {
		if d.v <= 0 {
			return fmt.Errorf("flash: geometry %s = %d, must be positive", d.name, d.v)
		}
	}
	if g.TotalPages() > int64(InvalidPPA) {
		return fmt.Errorf("flash: geometry has %d pages, exceeding the 32-bit PPA space", g.TotalPages())
	}
	return nil
}

// Dies returns the total number of dies (the unit of command parallelism).
func (g Geometry) Dies() int { return g.Channels * g.ChipsPerChannel * g.DiesPerChip }

// Planes returns the total number of planes.
func (g Geometry) Planes() int { return g.Dies() * g.PlanesPerDie }

// TotalBlocks returns the total number of erase blocks.
func (g Geometry) TotalBlocks() int64 { return int64(g.Planes()) * int64(g.BlocksPerPlane) }

// TotalPages returns the total number of flash pages.
func (g Geometry) TotalPages() int64 { return g.TotalBlocks() * int64(g.PagesPerBlock) }

// Capacity returns the raw capacity in bytes.
func (g Geometry) Capacity() int64 { return g.TotalPages() * int64(g.PageSize) }

// PagesPerPlane returns the number of pages in one plane.
func (g Geometry) PagesPerPlane() int64 { return int64(g.BlocksPerPlane) * int64(g.PagesPerBlock) }

// DiesPerChannel returns the number of dies behind one channel.
func (g Geometry) DiesPerChannel() int { return g.ChipsPerChannel * g.DiesPerChip }

// PagesPerChannel returns the number of pages behind one channel. The
// linear PPA layout is channel-major, so channel ch owns the contiguous
// PPA range [ch*PagesPerChannel, (ch+1)*PagesPerChannel).
func (g Geometry) PagesPerChannel() int64 {
	return int64(g.DiesPerChannel()) * int64(g.PlanesPerDie) * g.PagesPerPlane()
}

// BlocksPerChannel returns the number of erase blocks behind one channel;
// like pages, a channel's BlockIDs are one contiguous range.
func (g Geometry) BlocksPerChannel() int64 {
	return g.PagesPerChannel() / int64(g.PagesPerBlock)
}

// Addr is a decomposed physical page address.
type Addr struct {
	Channel, Chip, Die, Plane, Block, Page int
}

// Decompose splits a PPA into its hierarchical coordinates. The linear
// layout is channel-major: consecutive PPAs within a plane walk pages then
// blocks; planes, dies, chips, and channels are the outer dimensions. The
// FTL spreads writes across channels itself, so the codec here only needs
// to be a bijection.
func (g Geometry) Decompose(p PPA) Addr {
	v := int64(p)
	pagesPerPlane := g.PagesPerPlane()
	plane := v / pagesPerPlane
	rem := v % pagesPerPlane
	a := Addr{
		Block: int(rem / int64(g.PagesPerBlock)),
		Page:  int(rem % int64(g.PagesPerBlock)),
	}
	a.Plane = int(plane % int64(g.PlanesPerDie))
	plane /= int64(g.PlanesPerDie)
	a.Die = int(plane % int64(g.DiesPerChip))
	plane /= int64(g.DiesPerChip)
	a.Chip = int(plane % int64(g.ChipsPerChannel))
	a.Channel = int(plane / int64(g.ChipsPerChannel))
	return a
}

// Compose is the inverse of Decompose.
func (g Geometry) Compose(a Addr) PPA {
	plane := ((int64(a.Channel)*int64(g.ChipsPerChannel)+int64(a.Chip))*int64(g.DiesPerChip)+int64(a.Die))*int64(g.PlanesPerDie) + int64(a.Plane)
	return PPA(plane*g.PagesPerPlane() + int64(a.Block)*int64(g.PagesPerBlock) + int64(a.Page))
}

// BlockID is the linear index of an erase block across the device.
type BlockID int64

// BlockOf returns the erase block containing p.
func (g Geometry) BlockOf(p PPA) BlockID {
	return BlockID(int64(p) / int64(g.PagesPerBlock))
}

// FirstPage returns the PPA of page 0 of block b.
func (g Geometry) FirstPage(b BlockID) PPA {
	return PPA(int64(b) * int64(g.PagesPerBlock))
}

// ChannelOf returns the channel that p's die hangs off. Channel is the
// outermost dimension of the linear layout, so this is a single division
// (equal to Decompose(p).Channel, without materializing the full Addr).
func (g Geometry) ChannelOf(p PPA) int { return int(int64(p) / g.PagesPerChannel()) }

// DieIndex returns the linear die index of p (for die-busy accounting).
func (g Geometry) DieIndex(p PPA) int {
	a := g.Decompose(p)
	return (a.Channel*g.ChipsPerChannel+a.Chip)*g.DiesPerChip + a.Die
}
