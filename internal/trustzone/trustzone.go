// Package trustzone models the ARM TrustZone extension IceClave builds on:
// two execution worlds (secure and normal), the three-way partition of the
// controller's physical memory into secure, protected, and normal regions
// (paper §4.2, Figure 4), the page-attribute encoding of Figure 6 (NS bit,
// AP[2:1] flags, and the repurposed ES bit), and world-switch cost
// accounting (3.8 µs per switch, Table 5).
//
// Concurrency contract: AddressSpace is mutated only during construction
// (AddRegion); once built, Check is a pure read and safe from any
// goroutine. Monitor tracks the current world of the single storage
// processor and is not safe for concurrent use — tee.Runtime serializes
// it under the runtime lock.
package trustzone

import (
	"errors"
	"fmt"
	"sort"

	"iceclave/internal/sim"
)

// World is the TrustZone execution world a processor runs in.
type World uint8

// The two TrustZone worlds.
const (
	Secure World = iota
	Normal
)

// String returns "secure" or "normal".
func (w World) String() string {
	if w == Secure {
		return "secure"
	}
	return "normal"
}

// RegionKind classifies a physical memory region. IceClave extends the
// classic secure/normal split with a protected region: writable only from
// the secure world but readable from the normal world, so in-storage
// programs can translate addresses through the shared mapping table without
// a world switch.
type RegionKind uint8

// The three IceClave memory region kinds.
const (
	RegionSecure RegionKind = iota
	RegionProtected
	RegionNormal
)

// String names the region kind.
func (k RegionKind) String() string {
	switch k {
	case RegionSecure:
		return "secure"
	case RegionProtected:
		return "protected"
	default:
		return "normal"
	}
}

// PageAttr is the Figure 6 page-table attribute encoding. NS distinguishes
// secure from non-secure pages; AP[2:1] carries the ARMv8 access
// permissions; ES is the reserved bit IceClave repurposes to mark the
// protected region.
type PageAttr struct {
	NS bool  // non-secure
	AP uint8 // AP[2:1], two bits
	ES bool  // IceClave protected-region marker
}

// AttrFor returns the Figure 6 encoding for a region kind.
func AttrFor(k RegionKind) PageAttr {
	switch k {
	case RegionSecure:
		return PageAttr{NS: false, AP: 0b00, ES: false}
	case RegionProtected:
		return PageAttr{NS: true, AP: 0b01, ES: true}
	default:
		return PageAttr{NS: true, AP: 0b01, ES: false}
	}
}

// Kind decodes an attribute back to its region kind.
func (a PageAttr) Kind() RegionKind {
	if !a.NS {
		return RegionSecure
	}
	if a.ES {
		return RegionProtected
	}
	return RegionNormal
}

// Allows implements the Figure 6 permission matrix: the access rights a
// world holds over a page with this attribute.
func (a PageAttr) Allows(w World, write bool) bool {
	switch a.Kind() {
	case RegionSecure:
		return w == Secure // R/W for secure, no access for normal
	case RegionProtected:
		if w == Secure {
			return true // R/W
		}
		return !write // read-only from the normal world
	default: // RegionNormal
		return true // R/W from both worlds
	}
}

// ErrFault is the base error for memory permission faults.
var ErrFault = errors.New("trustzone: permission fault")

// Region is a contiguous physical range with one attribute.
type Region struct {
	Name string
	Base uint64
	Size uint64
	Kind RegionKind
}

// End returns the first byte past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// AddressSpace is the TZASC-style region table: an ordered set of
// non-overlapping regions with permission checking.
type AddressSpace struct {
	regions []Region
}

// AddRegion registers a region. Overlapping an existing region is a
// configuration bug and returns an error.
func (as *AddressSpace) AddRegion(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("trustzone: region %q has zero size", r.Name)
	}
	for _, ex := range as.regions {
		if r.Base < ex.End() && ex.Base < r.End() {
			return fmt.Errorf("trustzone: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				r.Name, r.Base, r.End(), ex.Name, ex.Base, ex.End())
		}
	}
	as.regions = append(as.regions, r)
	sort.Slice(as.regions, func(i, j int) bool { return as.regions[i].Base < as.regions[j].Base })
	return nil
}

// RegionAt returns the region containing addr.
func (as *AddressSpace) RegionAt(addr uint64) (Region, bool) {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > addr })
	if i < len(as.regions) && as.regions[i].Base <= addr {
		return as.regions[i], true
	}
	return Region{}, false
}

// Check validates an access by world w to [addr, addr+size). It returns a
// fault error if any byte is unmapped or the permission matrix denies it.
func (as *AddressSpace) Check(w World, addr, size uint64, write bool) error {
	if size == 0 {
		return nil
	}
	end := addr + size
	for addr < end {
		r, ok := as.RegionAt(addr)
		if !ok {
			return fmt.Errorf("%w: %s-world access to unmapped address %#x", ErrFault, w, addr)
		}
		if !AttrFor(r.Kind).Allows(w, write) {
			op := "read"
			if write {
				op = "write"
			}
			return fmt.Errorf("%w: %s-world %s of %s region %q at %#x", ErrFault, w, op, r.Kind, r.Name, addr)
		}
		addr = r.End()
	}
	return nil
}

// Monitor tracks the current world of the (single) storage processor
// complex and charges the world-switch cost. In IceClave, switches happen
// on CMT misses, TEE lifecycle events, and exceptions — not on ordinary
// flash translations, which is the point of the protected region.
type Monitor struct {
	world      World
	switchCost sim.Duration
	switches   int64
}

// NewMonitor returns a monitor starting in the secure world (boot state)
// with the given per-switch cost.
func NewMonitor(switchCost sim.Duration) *Monitor {
	return &Monitor{world: Secure, switchCost: switchCost}
}

// World returns the current world.
func (m *Monitor) World() World { return m.world }

// Switches returns how many world switches have occurred.
func (m *Monitor) Switches() int64 { return m.switches }

// SwitchTo moves the processor to world w, returning the time after the
// switch completes. Switching to the current world is free.
func (m *Monitor) SwitchTo(at sim.Time, w World) sim.Time {
	if w == m.world {
		return at
	}
	m.world = w
	m.switches++
	return at + m.switchCost
}

// RoundTrip charges a normal→secure→normal round trip (e.g. a CMT miss
// serviced by the FTL) and returns the completion time. The processor must
// currently be in the normal world.
func (m *Monitor) RoundTrip(at sim.Time) sim.Time {
	at = m.SwitchTo(at, Secure)
	return m.SwitchTo(at, Normal)
}
