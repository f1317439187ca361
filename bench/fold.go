package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Quantile is one order statistic of a sample together with the sample it
// came from: N values in all, Beyond of them strictly above Value. A tail
// percentile is only worth reporting when Beyond is at least ten.
type Quantile struct {
	Value  float64
	N      int
	Beyond int
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the closest ranks. xs must be sorted ascending; an empty sample
// yields NaN.
func quantile(xs []float64, q float64) Quantile {
	n := len(xs)
	if n == 0 {
		return Quantile{Value: math.NaN()}
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	v := xs[lo]
	if lo+1 < n {
		v += (h - float64(lo)) * (xs[lo+1] - xs[lo])
	}
	beyond := n - sort.Search(n, func(i int) bool { return xs[i] > v })
	return Quantile{Value: v, N: n, Beyond: beyond}
}

// Summary is a sample's median and quartiles with its size.
type Summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize sorts a copy of xs and returns its median and quartiles.
func summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		Median: quantile(s, 0.5).Value,
		Q1:     quantile(s, 0.25).Value,
		Q3:     quantile(s, 0.75).Value,
		N:      len(s),
	}
}

// Layer is one span name's share of a fold: how many spans carried the
// name, their summed duration, and their summed self time — duration minus
// the part of the span's interval its children cover.
type Layer struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// Share is SelfMS over the fold's summed self time. At Parallel 1 the
	// summed self time is the traced wall time.
	Share float64 `json:"share"`
}

// interval is a half-open [start, end) span extent in microseconds.
type interval struct{ start, end int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
// Children of one span overlap whenever a worker pool runs them at
// Parallel > 1, so summing their durations would count time twice.
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// fold groups spans by name and attributes each span's self time to its
// name. A span whose parent is not among recs counts as a root. Layers
// come back in descending self time.
func fold(recs []obs.SpanRecord) []Layer {
	present := make(map[string]bool, len(recs))
	for _, r := range recs {
		present[r.SpanID] = true
	}
	children := make(map[string][]interval)
	for _, r := range recs {
		if r.ParentID != "" && present[r.ParentID] {
			children[r.ParentID] = append(children[r.ParentID], interval{r.StartUS, r.StartUS + r.DurUS})
		}
	}
	byName := make(map[string]*Layer)
	var selfSum float64
	for _, r := range recs {
		l := byName[r.Name]
		if l == nil {
			l = &Layer{Name: r.Name}
			byName[r.Name] = l
		}
		self := float64(r.DurUS-covered(children[r.SpanID], r.StartUS, r.StartUS+r.DurUS)) / 1000
		l.Count++
		l.TotalMS += float64(r.DurUS) / 1000
		l.SelfMS += self
		selfSum += self
	}
	out := make([]Layer, 0, len(byName))
	for _, l := range byName {
		if selfSum > 0 {
			l.Share = l.SelfMS / selfSum
		}
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ownerAttr marks the spans the benchmark records around its own calls
// into the program; graft hangs the program's spans beneath them.
const ownerAttr = "owner"

func benchOwned(r obs.SpanRecord) bool { return r.Attrs[ownerAttr] == "bench" }

// graft joins the program's span trees to the benchmark's, which the
// program cannot see. It drops every span named drop (the environment's
// umbrella "run" span, whose interval covers the benchmark's own spans),
// then re-parents two kinds of program span:
//
//   - a root joins the innermost benchmark span of the same trace around
//     its start: the client.request whose trace id the server took from
//     X-Request-Id;
//   - an orphan, whose parent is not among the spans, joins the innermost
//     span that contains its whole interval. Orphans come from environment
//     builds, which run one at a time (a cold server builds during its
//     first request), so containment is unambiguous.
func graft(recs []obs.SpanRecord, drop string) []obs.SpanRecord {
	out := make([]obs.SpanRecord, 0, len(recs))
	for _, r := range recs {
		if r.Name != drop {
			out = append(out, r)
		}
	}
	present := make(map[string]bool, len(out))
	for _, r := range out {
		present[r.SpanID] = true
	}
	orphan := func(r obs.SpanRecord) bool { return r.ParentID != "" && !present[r.ParentID] }
	var hosts, anchors []int
	for i, r := range out {
		if benchOwned(r) {
			hosts = append(hosts, i)
		}
		if !orphan(r) {
			anchors = append(anchors, i)
		}
	}
	// innermost returns the shortest candidate accepted by fits, or -1.
	innermost := func(cands []int, fits func(obs.SpanRecord) bool) int {
		best := -1
		for _, j := range cands {
			if fits(out[j]) && (best < 0 || out[j].DurUS < out[best].DurUS) {
				best = j
			}
		}
		return best
	}
	parents := make([]int, len(out))
	for i, r := range out {
		parents[i] = -1
		switch {
		case benchOwned(r):
		case r.ParentID == "":
			parents[i] = innermost(hosts, func(c obs.SpanRecord) bool {
				return c.TraceID == r.TraceID && c.StartUS <= r.StartUS && r.StartUS < c.StartUS+c.DurUS
			})
		case orphan(r):
			parents[i] = innermost(anchors, func(c obs.SpanRecord) bool {
				return c.StartUS <= r.StartUS && r.StartUS+r.DurUS <= c.StartUS+c.DurUS
			})
		}
	}
	for i, p := range parents {
		if p >= 0 {
			out[i].ParentID = out[p].SpanID
		}
	}
	return out
}

// addLayers records the per-layer metrics a fold yields, times scaled by
// the speed factor k of the traced work (see calib.go). A layer the
// workload does not reach reads zero.
func (s samples) addLayers(layers []Layer, k float64) {
	l := func(name string) Layer { return layerOf(layers, name) }
	s.add("workload.generate_ms", "ms", l("workload.generate").TotalMS*k)
	s.add("bench.build_self_ms", "ms", l("bench.build").SelfMS*k)
	s.add("engine.exec_calls", "count", float64(l("engine.exec").Count))
	s.add("engine.exec_ms", "ms", l("engine.exec").TotalMS*k)
	s.add("prompt.render_ms", "ms", l("prompt.render").SelfMS*k)
	req := l("llm.request")
	s.add("llm.request_self_ms", "ms", req.SelfMS*k)
	s.add("llm.requests", "count", float64(req.Count))
	if req.Count > 0 {
		s.add("llm.request_us", "us", req.TotalMS*1000/float64(req.Count)*k)
	}
	s.add("task.example_self_ms", "ms", l("task.example").SelfMS*k)
	s.add("task.cell_self_ms", "ms", l("task.cell").SelfMS*k)
	s.add("http.request_self_ms", "ms", l("http.request").SelfMS*k)
	s.add("client.request_self_ms", "ms", l("client.request").SelfMS*k)
	for _, x := range layers {
		if strings.HasPrefix(x.Name, "experiments.") {
			s.add(x.Name+"_ms", "ms", x.TotalMS/float64(x.Count)*k)
		}
	}
}

// layerOf returns the named layer of a fold (zero when absent).
func layerOf(layers []Layer, name string) Layer {
	for _, l := range layers {
		if l.Name == name {
			return l
		}
	}
	return Layer{Name: name}
}
