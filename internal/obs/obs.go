package obs

import (
	"fmt"
	"math/bits"
	"sort"

	"busprefetch/internal/bus"
)

// Phase is a processor activity class for span recording.
type Phase uint8

const (
	// PhaseCompute covers instruction execution and completed accesses.
	PhaseCompute Phase = iota
	// PhaseMemWait is a demand-miss, upgrade, or prefetch-in-progress stall.
	PhaseMemWait
	// PhaseLockWait is time queued on a held lock.
	PhaseLockWait
	// PhaseBarrierWait is time parked at a barrier.
	PhaseBarrierWait
	// PhaseBufferWait is time stalled for a prefetch issue-buffer slot.
	PhaseBufferWait
	// NumPhases is the number of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{"compute", "mem-wait", "lock-wait", "barrier-wait", "buffer-wait"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase(?)"
}

// LifetimeClass is the fate of one prefetch that reached the bus.
type LifetimeClass uint8

const (
	// LifeUseful: the fill completed before the demand access arrived, and a
	// demand access used the line while it was still resident — the prefetch
	// the taxonomy calls accurate and timely.
	LifeUseful LifetimeClass = iota
	// LifeLate: a demand access merged with the prefetch while it was still
	// in flight (the paper's prefetch-in-progress miss) — accurate but not
	// timely; only part of the latency was hidden.
	LifeLate
	// LifeEvicted: the prefetched line (or its prefetch-buffer entry) was
	// displaced by a later fill before any demand use — a wasted prefetch
	// that also cost a conflict.
	LifeEvicted
	// LifeInvalidated: a remote processor's write invalidated the line (or
	// dropped the non-snooping buffer entry) before any demand use — the
	// sharing fate prefetching cannot win, §4.4's central observation.
	LifeInvalidated
	// LifeUnused: the line was still resident and untouched when the run
	// ended (or the fetch never completed) — inaccurate speculation.
	LifeUnused
	// NumLifetimeClasses is the number of fates.
	NumLifetimeClasses
)

var lifetimeNames = [NumLifetimeClasses]string{"useful", "late", "evicted", "invalidated", "unused"}

func (c LifetimeClass) String() string {
	if int(c) < len(lifetimeNames) {
		return lifetimeNames[c]
	}
	return "lifetime(?)"
}

// LatencyBuckets is the fixed upper-edge set (in cycles, inclusive) for
// issue→grant and issue→fill histograms. The paper's 100-cycle memory
// latency sits mid-range; the tail buckets absorb bus-saturation queueing.
// A final implicit +Inf bucket catches everything beyond the last edge.
var LatencyBuckets = []uint64{25, 50, 75, 100, 150, 200, 300, 500, 1000, 5000}

// SlackBuckets is the fixed upper-edge set for fill→first-use distances:
// how long a useful prefetch sat resident before paying off. Short slack
// means just-in-time; long slack means eviction exposure.
var SlackBuckets = []uint64{10, 25, 50, 100, 200, 400, 800, 1600, 5000, 20000}

// Histogram is a fixed-bucket latency distribution. Buckets[i] counts
// samples <= Edges[i]; the final element of Counts is the overflow bucket.
// With fixed edges the JSON form is deterministic for a deterministic run.
type Histogram struct {
	// Edges are the inclusive upper bucket edges in cycles.
	Edges []uint64 `json:"edges"`
	// Counts has len(Edges)+1 entries; the last is the overflow bucket.
	Counts []uint64 `json:"counts"`
	// Samples and Sum support exact means.
	Samples uint64 `json:"samples"`
	Sum     uint64 `json:"sum"`
}

// NewHistogram creates an empty histogram over the given edges.
func NewHistogram(edges []uint64) Histogram {
	return Histogram{Edges: edges, Counts: make([]uint64, len(edges)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.Edges) && h.Edges[i] < v {
		i++
	}
	h.Counts[i]++
	h.Samples++
	h.Sum += v
}

// Mean returns the exact sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Samples == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Samples)
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) by linear
// interpolation inside the containing bucket. It is a pure function of the
// bucket counts, so it is deterministic; with fixed edges it is accurate to
// the bucket width. Overflow-bucket quantiles return the last finite edge.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Samples == 0 {
		return 0
	}
	rank := q * float64(h.Samples)
	var cum uint64
	lo := uint64(0)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		hi := lo
		if i < len(h.Edges) {
			hi = h.Edges[i]
		}
		if float64(cum+c) >= rank {
			if i >= len(h.Edges) {
				return float64(h.Edges[len(h.Edges)-1])
			}
			within := (rank - float64(cum)) / float64(c)
			return float64(lo) + within*float64(hi-lo)
		}
		cum += c
		lo = hi
	}
	return float64(h.Edges[len(h.Edges)-1])
}

// Span is one interval on the simulated timeline.
type Span struct {
	// Name labels the span ("compute", "fill", "prefetch mp3d", ...).
	Name string
	// Track is the timeline the span belongs to: a processor id, or BusTrack.
	Track int
	// Start and End are simulation cycles (End >= Start).
	Start, End uint64
	// Detail optionally refines the name ("proc 3", "demand", ...).
	Detail string
}

// BusTrack is the Span.Track value for bus-occupancy spans. On a multi-link
// interconnect, link N's spans land on BusTrack-N, so link tracks stay
// distinct from (and sort before) processor tracks.
const BusTrack = -1

// lifetime is one open prefetch lifetime, held by value in its
// processor's table.
type lifetime struct {
	la          uint64
	issue, fill uint64
	live        bool
	granted     bool
	filled      bool
	// merged is set when a demand access caught the prefetch in flight.
	merged bool
}

// lifetimeTable maps line addresses to a processor's open lifetimes: an
// open-addressed table with linear probing, kept at most half full, so
// opening and closing a lifetime allocates nothing once the table has
// grown to the processor's peak.
type lifetimeTable struct {
	slots []lifetime
	shift uint // 64 - log2(len(slots))
	n     int
}

// home returns la's preferred slot (Fibonacci hashing).
func (t *lifetimeTable) home(la uint64) int {
	return int((la * 0x9E3779B97F4A7C15) >> t.shift)
}

// slot returns la's slot, or the empty slot that ends its probe run.
func (t *lifetimeTable) slot(la uint64) int {
	mask := len(t.slots) - 1
	i := t.home(la)
	for t.slots[i].live && t.slots[i].la != la {
		i = (i + 1) & mask
	}
	return i
}

// find returns la's slot index, or -1.
func (t *lifetimeTable) find(la uint64) int {
	if t.n == 0 {
		return -1
	}
	if i := t.slot(la); t.slots[i].live {
		return i
	}
	return -1
}

// open starts a lifetime for la issued at issue, replacing any lifetime
// already open for la. A table about to pass half full doubles first (16
// slots at the start).
func (t *lifetimeTable) open(la, issue uint64) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]lifetime, max(2*len(old), 16))
		t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
		for _, lt := range old {
			if lt.live {
				t.slots[t.slot(lt.la)] = lt
			}
		}
	}
	i := t.slot(la)
	if !t.slots[i].live {
		t.n++
	}
	t.slots[i] = lifetime{la: la, issue: issue, live: true}
}

// remove empties slot i, shifting back any later lifetime of the same
// probe run whose home slot the hole now separates it from.
func (t *lifetimeTable) remove(i int) {
	t.n--
	mask := len(t.slots) - 1
	for j := i; ; {
		t.slots[i].live = false
		for {
			j = (j + 1) & mask
			if !t.slots[j].live {
				return
			}
			// The lifetime at j stays put when its home lies cyclically
			// in (i, j].
			k := t.home(t.slots[j].la)
			if (i <= j && (i < k && k <= j)) || (i > j && (k <= j || i < k)) {
				continue
			}
			t.slots[i] = t.slots[j]
			i = j
			break
		}
	}
}

// procObs is the per-processor recording state.
type procObs struct {
	// pending holds outstanding prefetch lifetimes by line address.
	pending lifetimeTable
	// lastSpanEnd is where the processor's previous span ended; the gap up
	// to a wait's start is recorded as compute.
	lastSpanEnd uint64
}

// busCounts is one link's grant counters, by op and arbitration class.
type busCounts [bus.NumOps][bus.NumClasses]BusOpCount

// BusOpCount aggregates one bus operation kind's grants and occupancy.
type BusOpCount struct {
	Grants uint64 `json:"grants"`
	Cycles uint64 `json:"cycles"`
}

// Summary is the reduced (histogram-level) view of one recorded run — what
// the metrics report serializes and the observability report section reads.
type Summary struct {
	// Lifetimes counts completed prefetch lifetimes by fate, indexed by
	// LifetimeClass (serialized as a name-keyed map for self-description).
	Lifetimes map[string]uint64 `json:"lifetimes"`
	// IssueToGrant is the arbitration-queue delay distribution of prefetch
	// fetches (issue to bus grant).
	IssueToGrant Histogram `json:"issue_to_grant"`
	// IssueToFill is the full prefetch latency distribution (issue to line
	// install).
	IssueToFill Histogram `json:"issue_to_fill"`
	// FillToUse is the resident-slack distribution of useful prefetches
	// (install to first demand use).
	FillToUse Histogram `json:"fill_to_use"`
	// BusOps aggregates bus grants and occupancy cycles by operation name,
	// split by arbitration class for fills ("fill/demand", "fill/prefetch").
	BusOps map[string]BusOpCount `json:"bus_ops"`
	// PhaseCycles sums each processor phase across the machine, keyed by
	// phase name. Compute is busy cycles; the waits are stall cycles.
	PhaseCycles map[string]uint64 `json:"phase_cycles"`
}

// LifetimeCount returns the count recorded for one fate.
func (s *Summary) LifetimeCount(c LifetimeClass) uint64 {
	return s.Lifetimes[c.String()]
}

// LifetimesTotal returns the number of classified prefetch lifetimes.
func (s *Summary) LifetimesTotal() uint64 {
	var n uint64
	for _, v := range s.Lifetimes {
		n += v
	}
	return n
}

// Accuracy returns the fraction of bus-reaching prefetches that were demand
// used at all (useful + late), per the survey's accuracy metric.
func (s *Summary) Accuracy() float64 {
	total := s.LifetimesTotal()
	if total == 0 {
		return 0
	}
	return float64(s.LifetimeCount(LifeUseful)+s.LifetimeCount(LifeLate)) / float64(total)
}

// Timeliness returns, of the accurate prefetches, the fraction that
// completed before their demand access arrived.
func (s *Summary) Timeliness() float64 {
	acc := s.LifetimeCount(LifeUseful) + s.LifetimeCount(LifeLate)
	if acc == 0 {
		return 0
	}
	return float64(s.LifetimeCount(LifeUseful)) / float64(acc)
}

// Coverage returns the fraction of would-be demand fetches that prefetching
// absorbed: useful prefetches over useful prefetches plus the demand misses
// that still initiated fetches. The caller supplies the run's adjusted CPU
// miss count (sim.Counters.AdjustedCPUMisses).
func (s *Summary) Coverage(adjustedCPUMisses uint64) float64 {
	useful := s.LifetimeCount(LifeUseful)
	if useful+adjustedCPUMisses == 0 {
		return 0
	}
	return float64(useful) / float64(useful+adjustedCPUMisses)
}

// Recorder collects observability data for one simulation run. The zero
// value is not useful; create one with New. A nil *Recorder is the disabled
// recorder: every method no-ops.
type Recorder struct {
	withSpans bool
	spans     []Span

	procs []procObs

	lifetimes [NumLifetimeClasses]uint64
	issGrant  Histogram
	issFill   Histogram
	fillUse   Histogram

	busOps []busCounts

	phaseCycles [NumPhases]uint64

	finished bool
	endAt    uint64
}

// Options configures a Recorder.
type Options struct {
	// Spans retains every phase and bus interval for trace export. Off, the
	// recorder keeps only histogram- and counter-level state, which is what
	// the metrics report and the observability report section need.
	Spans bool
}

// New creates a recorder for a run with the given processor count.
func New(procs int, opt Options) *Recorder {
	return &Recorder{
		withSpans: opt.Spans,
		procs:     make([]procObs, procs),
		issGrant:  NewHistogram(LatencyBuckets),
		issFill:   NewHistogram(LatencyBuckets),
		fillUse:   NewHistogram(SlackBuckets),
	}
}

// Enabled reports whether the recorder is live (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// pend returns the pending lifetime for (proc, la) and its slot, or nil.
func (r *Recorder) pend(proc int, la uint64) (*lifetime, int) {
	if proc < 0 || proc >= len(r.procs) {
		return nil, -1
	}
	t := &r.procs[proc].pending
	i := t.find(la)
	if i < 0 {
		return nil, -1
	}
	return &t.slots[i], i
}

// PrefetchIssued opens a lifetime: a prefetch for line la left proc's issue
// buffer for the bus at time now.
func (r *Recorder) PrefetchIssued(proc int, la uint64, now uint64) {
	if r == nil || proc < 0 || proc >= len(r.procs) {
		return
	}
	r.procs[proc].pending.open(la, now)
}

// PrefetchGranted marks the lifetime's bus grant.
func (r *Recorder) PrefetchGranted(proc int, la uint64, now uint64) {
	if r == nil {
		return
	}
	if lt, _ := r.pend(proc, la); lt != nil && !lt.granted {
		lt.granted = true
		r.issGrant.Observe(now - lt.issue)
	}
}

// PrefetchMerged marks that a demand access merged with the in-flight
// prefetch: the lifetime will close as LifeLate when the fill lands.
func (r *Recorder) PrefetchMerged(proc int, la uint64, now uint64) {
	if r == nil {
		return
	}
	if lt, _ := r.pend(proc, la); lt != nil {
		lt.merged = true
	}
}

// PrefetchFilled marks the line install. A lifetime a demand access already
// merged with closes here as LifeLate; otherwise it stays open awaiting its
// first use or early death.
func (r *Recorder) PrefetchFilled(proc int, la uint64, now uint64) {
	if r == nil {
		return
	}
	lt, i := r.pend(proc, la)
	if lt == nil || lt.filled {
		return
	}
	lt.fill, lt.filled = now, true
	r.issFill.Observe(now - lt.issue)
	if r.withSpans {
		r.spans = append(r.spans, Span{Name: "prefetch-inflight", Track: proc, Start: lt.issue, End: now})
	}
	if lt.merged {
		r.close(proc, i, LifeLate)
	}
}

// PrefetchFirstUse closes a lifetime as LifeUseful: a demand access touched
// the prefetched line while it was still resident.
func (r *Recorder) PrefetchFirstUse(proc int, la uint64, now uint64) {
	if r == nil {
		return
	}
	if lt, i := r.pend(proc, la); lt != nil && lt.filled {
		r.fillUse.Observe(now - lt.fill)
		r.close(proc, i, LifeUseful)
	}
}

// PrefetchEvicted closes a lifetime as LifeEvicted: the unused line (or its
// buffer entry) was displaced.
func (r *Recorder) PrefetchEvicted(proc int, la uint64, now uint64) {
	if r == nil {
		return
	}
	if lt, i := r.pend(proc, la); lt != nil && lt.filled {
		r.close(proc, i, LifeEvicted)
	}
}

// PrefetchInvalidated closes a lifetime as LifeInvalidated: a remote write
// killed the unused copy.
func (r *Recorder) PrefetchInvalidated(proc int, la uint64, now uint64) {
	if r == nil {
		return
	}
	if lt, i := r.pend(proc, la); lt != nil && lt.filled {
		r.close(proc, i, LifeInvalidated)
	}
}

// close retires the pending lifetime in proc's slot i into its class
// counter.
func (r *Recorder) close(proc, i int, c LifetimeClass) {
	r.procs[proc].pending.remove(i)
	r.lifetimes[c]++
}

// Wait records one completed wait interval for a processor, attributing the
// preceding gap (since the processor's previous recorded interval) to
// compute. Phase totals always accumulate; the spans themselves are kept
// only in span mode.
func (r *Recorder) Wait(proc int, phase Phase, start, end uint64) {
	if r == nil || proc < 0 || proc >= len(r.procs) || end < start {
		return
	}
	p := &r.procs[proc]
	if start > p.lastSpanEnd {
		r.phaseCycles[PhaseCompute] += start - p.lastSpanEnd
		if r.withSpans {
			r.spans = append(r.spans, Span{Name: PhaseCompute.String(), Track: proc, Start: p.lastSpanEnd, End: start})
		}
	}
	r.phaseCycles[phase] += end - start
	if r.withSpans {
		r.spans = append(r.spans, Span{Name: phase.String(), Track: proc, Start: start, End: end})
	}
	p.lastSpanEnd = end
}

// ProcFinished records a processor's final compute stretch, from its last
// recorded interval to its finish time.
func (r *Recorder) ProcFinished(proc int, finish uint64) {
	if r == nil || proc < 0 || proc >= len(r.procs) {
		return
	}
	p := &r.procs[proc]
	if finish > p.lastSpanEnd {
		r.phaseCycles[PhaseCompute] += finish - p.lastSpanEnd
		if r.withSpans {
			r.spans = append(r.spans, Span{Name: PhaseCompute.String(), Track: proc, Start: p.lastSpanEnd, End: finish})
		}
		p.lastSpanEnd = finish
	}
}

// BusOccupied records one bus grant: link's resource is held for
// [grant, grant+occupancy) by proc's op transaction of the given
// arbitration class. Link 0 is the single bus; a multi-link
// interconnect's higher links get "@link"-suffixed op keys in the summary
// and their own occupancy track (BusTrack-link).
func (r *Recorder) BusOccupied(link int, grant, occupancy uint64, op bus.Op, class bus.Class, proc int) {
	if r == nil {
		return
	}
	for link >= len(r.busOps) {
		r.busOps = append(r.busOps, busCounts{})
	}
	c := &r.busOps[link][op][class]
	c.Grants++
	c.Cycles += occupancy
	if r.withSpans {
		r.spans = append(r.spans, Span{Name: op.String(), Track: BusTrack - link, Start: grant, End: grant + occupancy, Detail: class.String()})
	}
}

// Finish flushes end-of-run state: every still-pending lifetime closes as
// LifeUnused (resident-but-never-used, or never completed). Idempotent.
func (r *Recorder) Finish(end uint64) {
	if r == nil || r.finished {
		return
	}
	r.finished = true
	r.endAt = end
	for i := range r.procs {
		p := &r.procs[i]
		r.lifetimes[LifeUnused] += uint64(p.pending.n)
		p.pending = lifetimeTable{}
	}
}

// Spans returns the retained spans (span mode only), ordered by start time,
// then track, then name, so export is deterministic.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	s := append([]Span(nil), r.spans...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		if s[i].Track != s[j].Track {
			return s[i].Track < s[j].Track
		}
		return s[i].Name < s[j].Name
	})
	return s
}

// Summary reduces the recording to its serializable form. Call after Finish.
func (r *Recorder) Summary() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{
		Lifetimes:    make(map[string]uint64, NumLifetimeClasses),
		IssueToGrant: r.issGrant,
		IssueToFill:  r.issFill,
		FillToUse:    r.fillUse,
		BusOps:       make(map[string]BusOpCount),
		PhaseCycles:  make(map[string]uint64, NumPhases),
	}
	for c := LifetimeClass(0); c < NumLifetimeClasses; c++ {
		if r.lifetimes[c] > 0 {
			s.Lifetimes[c.String()] = r.lifetimes[c]
		}
	}
	// Fills split by arbitration class ("fill/demand"); other ops sum
	// their classes.
	for link := range r.busOps {
		for op := bus.Op(0); op < bus.NumOps; op++ {
			for class := bus.Class(0); class < bus.NumClasses; class++ {
				c := r.busOps[link][op][class]
				if c.Grants == 0 {
					continue
				}
				key := op.String()
				if op == bus.OpFill {
					key += "/" + class.String()
				}
				if link > 0 {
					key = fmt.Sprintf("%s@%d", key, link)
				}
				sum := s.BusOps[key]
				sum.Grants += c.Grants
				sum.Cycles += c.Cycles
				s.BusOps[key] = sum
			}
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		if r.phaseCycles[p] > 0 {
			s.PhaseCycles[p.String()] = r.phaseCycles[p]
		}
	}
	return s
}
