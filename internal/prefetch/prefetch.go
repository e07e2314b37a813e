package prefetch

import (
	"fmt"

	"busprefetch/internal/memory"
	"busprefetch/internal/names"
)

// Strategy selects a prefetching discipline.
type Strategy int

const (
	// NP performs no prefetching.
	NP Strategy = iota
	// PREF is the baseline oracle prefetcher.
	PREF
	// EXCL prefetches predicted write misses in exclusive mode.
	EXCL
	// LPD uses a 400-cycle prefetch distance instead of 100.
	LPD
	// PWS adds aggressive prefetching of write-shared data.
	PWS
	// NumStrategies is the number of disciplines.
	NumStrategies
)

var strategyNames = [NumStrategies]string{"NP", "PREF", "EXCL", "LPD", "PWS"}

func (s Strategy) String() string {
	if s >= 0 && int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all disciplines in the paper's presentation order.
func Strategies() []Strategy { return []Strategy{NP, PREF, EXCL, LPD, PWS} }

// ParseStrategy converts a name ("PREF", "pws", ...) to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	i, err := names.Parse("strategy", strategyNames[:], name)
	if err != nil {
		return NP, fmt.Errorf("prefetch: %w", err)
	}
	return Strategy(i), nil
}

// Options configures insertion.
type Options struct {
	// Strategy is the discipline to apply.
	Strategy Strategy
	// Geometry is the cache shape used by the oracle filter; it should
	// match the simulated cache ("the filter cache (of the same size as the
	// actual cache)").
	Geometry memory.Geometry
	// Distance overrides the strategy's prefetch distance in estimated CPU
	// cycles. Zero selects the paper's value: 100, or 400 for LPD.
	Distance int
	// ExcludeWriteShared suppresses prefetches of write-shared lines. It is
	// required when simulating with sim.PrefetchToBuffer: the paper's
	// prefetch buffers do not snoop, so "no shared data can be prefetched,
	// unless it can be guaranteed not to be written during the interval"
	// (§3.1). Not meaningful together with PWS, whose whole point is
	// prefetching write-shared data.
	ExcludeWriteShared bool
}

// DefaultDistance is the paper's prefetch distance for PREF, EXCL and PWS.
const DefaultDistance = 100

// LongDistance is the paper's prefetch distance for LPD.
const LongDistance = 400

func (o Options) distance() uint64 {
	if o.Distance > 0 {
		return uint64(o.Distance)
	}
	if o.Strategy == LPD {
		return LongDistance
	}
	return DefaultDistance
}
