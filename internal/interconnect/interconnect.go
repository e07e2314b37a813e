package interconnect

import (
	"fmt"

	"busprefetch/internal/bus"
	"busprefetch/internal/names"
)

// Kind identifies an interconnect topology.
type Kind uint8

const (
	// SingleBus is the paper's machine: one split-transaction bus.
	SingleBus Kind = iota
	// MultiBus is N independent data buses with address-interleaved routing.
	MultiBus
	// Directory is a point-to-point model: every line has a home node with
	// its own link, and each transaction pays a directory-lookup latency
	// before service.
	Directory
	numKinds
)

var kindNames = []string{"bus", "multibus", "directory"}

func (k Kind) String() string { return names.Lookup("Kind", kindNames, int(k)) }

// Valid reports whether k names a known topology.
func (k Kind) Valid() bool { return k < numKinds }

// Kinds returns every topology in declaration order.
func Kinds() []Kind { return []Kind{SingleBus, MultiBus, Directory} }

// ParseKind resolves a topology name ("bus", "multibus", "directory"),
// case-insensitively.
func ParseKind(name string) (Kind, error) {
	i, err := names.Parse("interconnect", kindNames, name)
	if err != nil {
		return SingleBus, fmt.Errorf("interconnect: %w", err)
	}
	return Kind(i), nil
}

// ParseConfig builds a validated Config from CLI-style inputs: a topology
// name, a link count (0 = the topology's default), and an arbitration
// discipline name. It is the shared backend of the CLIs' -interconnect,
// -buses, and -discipline flags.
func ParseConfig(kind string, links int, discipline string) (Config, error) {
	k, err := ParseKind(kind)
	if err != nil {
		return Config{}, err
	}
	d, err := bus.ParseDiscipline(discipline)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Kind: k, Links: links, Discipline: d}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// DefaultMultiBusLinks is the MultiBus link count when Config.Links is zero.
const DefaultMultiBusLinks = 2

// lookupCycles is the Directory home-node lookup latency: the indirection
// cost the point-to-point fabric pays per transaction in exchange for not
// sharing a bus.
const lookupCycles = 20

// Config selects and parameterizes a topology. The zero value is the paper's
// machine — a single priority-arbitrated bus — and simulates byte-identically
// to the pre-seam simulator.
type Config struct {
	// Kind is the topology.
	Kind Kind
	// Links is the parallel-link count: data buses for MultiBus (0 selects
	// DefaultMultiBusLinks), home-node links for Directory (0 selects one
	// per processor). SingleBus requires 0 or 1.
	Links int
	// Discipline is the per-link arbitration service discipline.
	Discipline bus.Discipline
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case !c.Kind.Valid():
		return fmt.Errorf("interconnect: unknown kind %d", int(c.Kind))
	case !c.Discipline.Valid():
		return fmt.Errorf("interconnect: unknown discipline %d", int(c.Discipline))
	case c.Links < 0:
		return fmt.Errorf("interconnect: negative link count %d", c.Links)
	case c.Kind == SingleBus && c.Links > 1:
		return fmt.Errorf("interconnect: single bus with %d links (use multibus)", c.Links)
	}
	return nil
}

// links resolves the effective link count for nproc processors.
func (c Config) links(nproc int) int {
	if c.Links > 0 {
		return c.Links
	}
	switch c.Kind {
	case MultiBus:
		return DefaultMultiBusLinks
	case Directory:
		return nproc
	default:
		return 1
	}
}

// lookup resolves the effective Directory lookup latency.
func (c Config) lookup() uint64 {
	if c.Kind != Directory {
		return 0
	}
	return lookupCycles
}

// String renders the canonical spec form used in checkpoint keys and
// diagnostics: every field that changes a simulated result appears.
func (c Config) String() string {
	var s string
	switch c.Kind {
	case MultiBus:
		s = fmt.Sprintf("multibus:%d", c.links(0))
	case Directory:
		if c.Links > 0 {
			s = fmt.Sprintf("directory:%d+%d", c.Links, c.lookup())
		} else {
			s = fmt.Sprintf("directory:np+%d", c.lookup())
		}
	default:
		s = "bus"
	}
	if c.Discipline != bus.Priority {
		s += "/" + c.Discipline.String()
	}
	return s
}

// Observer receives every grant on every link: the link index, the grant
// time, the occupancy the winner holds, its op, the arbitration class it
// held, and the requesting processor.
type Observer func(link int, grant, occupancy uint64, op bus.Op, class bus.Class, proc int)

// Fabric is the contended memory fabric: it admits requests, arbitrates them
// onto links under a service discipline, accounts occupancy, and fires each
// request's OnGrant (the coherence serialization point, where the simulator
// snoops) and OnComplete callbacks. Every topology is one or more bus.Bus
// links plus a routing function and an admission latency. Requests route by
// line address, so all transactions on a line serialize on the same link and
// the grant stays a coherence serialization point regardless of link count.
//
// The contract every topology obeys (pinned by the conformance suite): a
// submitted request is granted exactly once, no earlier than its Ready time,
// and completed exactly once at grant+Occupancy; grants on one link never
// overlap; requests for the same Addr serialize on one link, so their grant
// order is a total order the coherence layer can rely on; and the whole
// schedule is a deterministic function of the submission sequence.
type Fabric struct {
	links  []*bus.Bus
	shift  uint
	lookup uint64
}

// New builds the configured fabric for nproc processors on sched; the zero
// Config yields the paper's single priority bus. routeShift drops the line-offset bits before
// interleaving, so consecutive lines land on consecutive links; the
// simulator passes log2(line size), and it only matters when there is more
// than one link.
func New(cfg Config, routeShift uint, sched bus.Scheduler, nproc int) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if routeShift > 63 {
		return nil, fmt.Errorf("interconnect: route shift %d exceeds the address width", routeShift)
	}
	n := cfg.links(nproc)
	if n <= 0 {
		return nil, fmt.Errorf("interconnect: resolved link count %d for %d processors", n, nproc)
	}
	f := &Fabric{shift: routeShift, lookup: cfg.lookup(), links: make([]*bus.Bus, n)}
	for i := range f.links {
		b, err := bus.NewWithDiscipline(sched, nproc, cfg.Discipline)
		if err != nil {
			return nil, err
		}
		f.links[i] = b
	}
	return f, nil
}

// Submit queues a request at simulation time now. The request's Addr routes
// it; Ready may be adjusted upward by topology latency (the Directory
// lookup) before admission.
func (f *Fabric) Submit(now uint64, r *bus.Request) error {
	if r == nil {
		return fmt.Errorf("interconnect: nil request at cycle %d", now)
	}
	if f.lookup != 0 {
		// The home-node directory lookup extends the transaction's
		// uncontended phase; the link's occupancy is unchanged.
		r.Ready += f.lookup
	}
	link := f.links[0]
	if len(f.links) > 1 {
		link = f.links[(r.Addr>>f.shift)%uint64(len(f.links))]
	}
	return link.Submit(now, r)
}

// Pending returns the number of requests awaiting a grant, across links.
func (f *Fabric) Pending() int {
	n := 0
	for _, b := range f.links {
		n += b.Pending()
	}
	return n
}

// Links returns the parallel-link count.
func (f *Fabric) Links() int { return len(f.links) }

// Stats returns the aggregate traffic counters, summed across links.
func (f *Fabric) Stats() bus.Stats {
	var agg bus.Stats
	for _, b := range f.links {
		s := b.Stats()
		agg.BusyCycles += s.BusyCycles
		for i := range s.Ops {
			agg.Ops[i] += s.Ops[i]
		}
		agg.DemandGrants += s.DemandGrants
		agg.PrefetchGrants += s.PrefetchGrants
	}
	return agg
}

// LinkStats returns per-link traffic counters, indexed by link.
func (f *Fabric) LinkStats() []bus.Stats {
	out := make([]bus.Stats, len(f.links))
	for i, b := range f.links {
		out[i] = b.Stats()
	}
	return out
}

// SetObserver installs (or, with nil, removes) the per-grant observer.
func (f *Fabric) SetObserver(fn Observer) {
	for i, b := range f.links {
		if fn == nil {
			b.SetObserver(nil)
			continue
		}
		link := i
		b.SetObserver(func(grant, occupancy uint64, op bus.Op, class bus.Class, proc int) {
			fn(link, grant, occupancy, op, class, proc)
		})
	}
}
