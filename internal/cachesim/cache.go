// Package cachesim implements a set-associative LRU data-cache simulator and
// the SpMV access-trace driver used to count the cache misses triggered by
// accesses to the multiplying vector x in y = Ax — the quantity the paper's
// cache-friendly fill-in keeps constant while enlarging the FSAI pattern
// (Section 4, Figure 3).
//
// The simulator works at cache-line granularity with true LRU replacement
// per set, which is the standard first-order model of L1 data caches on the
// three machines of the paper (Skylake and POWER9: 64 B lines; A64FX: 256 B
// lines).
package cachesim

import "fmt"

// Config describes a cache level's geometry.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size
	Ways      int // associativity; Ways == SizeBytes/LineBytes gives fully associative
}

// Validate checks that the geometry is internally consistent: positive
// power-of-two line size, capacity divisible into an integral number of
// sets.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d is not a positive power of two", c.LineBytes)
	}
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cachesim: non-positive size or ways")
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cachesim: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cachesim: set count %d is not a power of two", sets)
	}
	return nil
}

// Cache is a set-associative cache with LRU replacement. Addresses are byte
// addresses; the cache is indexed with the standard offset/index/tag split
// of the physical (== virtual, for index+offset bits) address described in
// Section 4.1.
type Cache struct {
	cfg        Config
	sets       int
	ways       int
	lineShift  uint
	setMask    uint64
	tags       []uint64 // sets*ways entries
	valid      []bool
	age        []uint64 // LRU stamps, larger == more recent
	clock      uint64
	nMisses    uint64
	nEvictions uint64
}

// New builds a cache from cfg; invalid geometry panics (configurations are
// compile-time constants of the arch models, so misuse is a programmer bug).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, lines),
		valid:     make([]bool, lines),
		age:       make([]uint64, lines),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Reset invalidates all lines and clears counters. LRU stamps are cleared
// too so a reset cache is indistinguishable from a fresh one (stale stamps
// must not bias victim selection).
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.age[i] = 0
	}
	c.clock = 0
	c.nMisses, c.nEvictions = 0, 0
}

// Access simulates a load of the byte at addr and returns true on a hit.
// On a miss the line is filled, evicting the LRU way of its set.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> uint(0) // full line number serves as tag (set bits redundant but harmless)
	base := set * c.ways
	// Hit scan.
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.age[base+w] = c.clock
			return true
		}
	}
	// Miss: fill the first invalid way, else the LRU way. The scan must
	// consider way 0's validity explicitly — assuming it as a fallback
	// victim would let a stale high age stamp keep it unfilled.
	c.nMisses++
	victim := base
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.age[base+w] < c.age[victim] {
			victim = base + w
		}
	}
	if c.valid[victim] {
		c.nEvictions++
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.age[victim] = c.clock
	return false
}

// Touch is Access for callers that don't care about the hit/miss result.
func (c *Cache) Touch(addr uint64) { c.Access(addr) }

// Misses returns the number of misses since the last Reset.
func (c *Cache) Misses() uint64 { return c.nMisses }

// Evictions returns the number of valid-line evictions since the last Reset.
func (c *Cache) Evictions() uint64 { return c.nEvictions }
