package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"geckoftl/internal/model"
)

// Scale classifies the ExperimentScale a run used, for deciding which of its
// claims must hold: the quick scale the goldens record, the full scale
// geckobench defaults to, or any other (a -blocks or -writes run).
type Scale uint8

const (
	ScaleQuick Scale = 1 << iota
	ScaleFull
	ScaleOther
	AllScales = ScaleQuick | ScaleFull | ScaleOther
)

// ScaleOf classifies s.
func ScaleOf(s ExperimentScale) Scale {
	switch s {
	case QuickScale():
		return ScaleQuick
	case FullScale():
		return ScaleFull
	}
	return ScaleOther
}

// Claim is one statement the evaluation makes, as a predicate over an
// experiment's rows: a claim of the paper, or of a sweep beyond it. Claims are checked on rows already produced (the quick
// goldens, or the run geckobench just made), never by running again.
type Claim struct {
	// ID is "<experiment>.<name>", unique across the registry.
	ID string
	// Source is the paper section the claim comes from, or the sweep beyond
	// the paper that makes it; Statement says what it asserts.
	Source, Statement string
	// MustHold is the set of scales at which a failure is an error. Where it
	// is not every scale, Owner names the ROADMAP item that owns the claim's
	// known failures at the others.
	MustHold Scale
	Owner    string
	// Check returns nil when the claim holds on an experiment's rows (the
	// value its Run returns), or an error naming its counterexamples.
	Check func(rows any) error
}

// Verdict is a claim evaluated on one run's rows.
type Verdict struct {
	Claim    string `json:"claim"`
	Holds    bool   `json:"holds"`
	MustHold bool   `json:"must_hold"`
	Owner    string `json:"owner,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Failed reports a claim that must hold at the run's scale and does not.
func (v Verdict) Failed() bool { return v.MustHold && !v.Holds }

func (v Verdict) String() string {
	switch {
	case v.Holds:
		return "holds"
	case v.MustHold:
		return "FAILS: " + v.Detail
	}
	return "fails, expected at this scale (ROADMAP item " + v.Owner + "): " + v.Detail
}

// Verdicts evaluates the experiment's claims on rows it produced at scale. A
// predicate that panics on rows of an unexpected shape fails its claim.
func (e Experiment) Verdicts(rows any, scale ExperimentScale) []Verdict {
	at := ScaleOf(scale)
	out := make([]Verdict, len(e.Claims))
	for i, c := range e.Claims {
		out[i] = Verdict{Claim: c.ID, Holds: true, MustHold: c.MustHold&at != 0, Owner: c.Owner}
		if err := c.eval(rows); err != nil {
			out[i].Holds, out[i].Detail = false, err.Error()
		}
	}
	return out
}

func (c Claim) eval(rows any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rows do not have the claim's shape: %v", r)
		}
	}()
	return c.Check(rows)
}

// claim declares a claim over rows of type R that must hold at every scale.
func claim[R any](id, source, statement string, holds func(R) error) Claim {
	return Claim{ID: id, Source: source, Statement: statement, MustHold: AllScales,
		Check: func(rows any) error { return holds(rows.(R)) }}
}

// failsAt exempts the scales s, where c is known to fail, and names the
// ROADMAP item that owns the failure.
func (c Claim) failsAt(s Scale, owner string) Claim {
	c.MustHold &^= s
	c.Owner = owner
	return c
}

// need returns nil if ok, else the counterexample.
func need(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// every returns the counterexamples f finds among rows, joined.
func every[T any](rows []T, f func(T) error) error {
	var found []string
	for _, r := range rows {
		if err := f(r); err != nil {
			found = append(found, err.Error())
		}
	}
	if len(found) == 0 {
		return nil
	}
	return errors.New(strings.Join(found, "; "))
}

// rowClaim declares a claim that holds of every row.
func rowClaim[T any](id, source, statement string, holds func(T) error) Claim {
	return claim(id, source, statement, func(rows []T) error { return every(rows, holds) })
}

// keyed indexes rows by key; a key that no row has reads as the zero row.
func keyed[T any, K comparable](rows []T, key func(T) K) map[K]T {
	m := make(map[K]T, len(rows))
	for _, r := range rows {
		m[key(r)] = r
	}
	return m
}

// shape requires the rows' keys to be exactly want, in order.
func shape[T any](rows []T, key func(T) string, want ...string) error {
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = key(r)
	}
	return need(slices.Equal(got, want), "rows %v, want %v", got, want)
}

var fiveFTLs = []string{"DFTL", "LazyFTL", "uFTL", "IB-FTL", "GeckoFTL"}

func resultName(r Result) string           { return r.Name }
func fig14Name(r Figure14Row) string       { return r.Name }
func recoveryName(r RecoveryResult) string { return r.Name }

// claims is the table of every experiment's claims, in registry order; an
// experiment's are those whose id starts with its name and a dot.
var claims = []Claim{
	claim("fig1.rows", "§1, Fig. 1", "The capacity sweep evaluates at least five device sizes.", func(rows []model.CapacityPoint) error {
		return need(len(rows) >= 5, "%d points", len(rows))
	}),
	claim("table1.rows", "§3, Table 1", "Table 1 evaluates the three page-validity schemes.", func(rows []model.Table1Row) error {
		return need(len(rows) == 3, "%d rows", len(rows))
	}),
	claim("fig9.rows", "§5.1, Fig. 9", "The flash-resident PVB, then Logarithmic Gecko at T = 2, 4, 8, 16 and 32.", func(rows []Figure9Row) error {
		return shape(rows, func(r Figure9Row) string { return r.Name }, "flash-pvb", "gecko(T=2)", "gecko(T=4)", "gecko(T=8)", "gecko(T=16)", "gecko(T=32)")
	}),
	claim("fig9.gecko-below-pvb", "§5.1, Fig. 9", "Logarithmic Gecko's write-amplification is below the flash-resident PVB's at every T.", func(rows []Figure9Row) error {
		return every(rows[1:], func(r Figure9Row) error {
			return need(r.WA < rows[0].WA, "%s WA %.4g, flash PVB %.4g", r.Name, r.WA, rows[0].WA)
		})
	}),
	claim("fig9.small-t", "§5.1, Fig. 9", "T = 2 costs no more write-amplification than T = 32.", func(rows []Figure9Row) error {
		t2, t32 := rows[1], rows[len(rows)-1]
		return need(t2.WA <= t32.WA, "%s WA %.4g, %s WA %.4g", t2.Name, t2.WA, t32.Name, t32.WA)
	}),
	claim("fig10.unpartitioned-grows", "§5.2, Fig. 10", "Without entry-partitioning (S = 1), write-amplification at B = 128 is over 1.5 times that at B = 16.", func(rows []Figure10Row) error {
		un16, un128 := fig10WA(rows, 16, 1), fig10WA(rows, 128, 1)
		return need(un128 > 1.5*un16, "S = 1: WA %.4g at B = 128, %.4g at B = 16", un128, un16)
	}),
	claim("fig10.partitioning-flattens", "§5.2, Fig. 10", "With the recommended S, write-amplification grows less from B = 16 to B = 128 than with S = 1.", func(rows []Figure10Row) error {
		rec, unpart := fig10WA(rows, 128, -1)/fig10WA(rows, 16, -1), fig10WA(rows, 128, 1)/fig10WA(rows, 16, 1)
		return need(rec < unpart, "growth %.3gx with the recommended S, %.3gx with S = 1", rec, unpart)
	}),
	claim("fig11.rows", "§5.2, Fig. 11", "The capacity sweep has at least three values of K.", func(rows []Figure11Row) error {
		return need(len(rows) >= 3, "%d rows", len(rows))
	}),
	rowClaim("fig11.gecko-below-pvb", "§5.2, Fig. 11", "Logarithmic Gecko's write-amplification is below the flash-resident PVB's at every K.", func(r Figure11Row) error {
		return need(r.GeckoWA < r.PVBWA, "K = %d: Gecko WA %.4g, PVB %.4g", r.Blocks, r.GeckoWA, r.PVBWA)
	}),
	claim("fig11.gecko-no-shrink", "§5.2, Fig. 11", "Logarithmic Gecko's write-amplification does not shrink with K (it grows logarithmically): the largest K is at least 0.8 times the smallest.", func(rows []Figure11Row) error {
		first, last := rows[0], rows[len(rows)-1]
		return need(last.GeckoWA >= 0.8*first.GeckoWA, "Gecko WA %.4g at K = %d, %.4g at K = %d", last.GeckoWA, last.Blocks, first.GeckoWA, first.Blocks)
	}),
	claim("fig11.pvb-flat", "§5.2, Fig. 11", "The flash-resident PVB's write-amplification is about flat in K: within 0.7x to 1.3x from the smallest K to the largest.", func(rows []Figure11Row) error {
		growth := rows[len(rows)-1].PVBWA / rows[0].PVBWA
		return need(growth >= 0.7 && growth <= 1.3, "PVB WA grows %.3gx", growth)
	}),
	claim("fig12.rows", "§5.2, Fig. 12", "The sweep has five over-provisioning ratios R.", func(rows []Figure12Row) error {
		return need(len(rows) == 5, "%d rows", len(rows))
	}),
	claim("fig12.gc-queries-rise", "§5.2, Fig. 12", "Less over-provisioning (higher R) means more GC queries.", func(rows []Figure12Row) error {
		first, last := rows[0], rows[len(rows)-1]
		return need(last.GCQueries > first.GCQueries, "%d GC queries at R = %.1f, %d at R = %.1f", last.GCQueries, last.OverProvision, first.GCQueries, first.OverProvision)
	}),
	rowClaim("fig12.wa-low", "§5.2, Fig. 12", "Logarithmic Gecko's write-amplification stays at most 0.6 at every R.", func(r Figure12Row) error {
		return need(r.WA <= 0.6, "R = %.1f: WA %.4g", r.OverProvision, r.WA)
	}),
	claim("fig13ram.rows", "§5.3, Fig. 13 top", "The RAM breakdown covers the five FTLs.", func(rows []model.RAMBreakdown) error {
		return shape(rows, func(r model.RAMBreakdown) string { return r.FTL.String() }, fiveFTLs...)
	}),
	claim("fig13rec.rows", "§5.3, Fig. 13 middle", "The recovery-time breakdown covers the five FTLs.", func(rows []model.RecoveryBreakdown) error {
		return shape(rows, func(r model.RecoveryBreakdown) string { return r.FTL.String() }, fiveFTLs...)
	}),
	claim("fig13wa.rows", "§5.3, Fig. 13 bottom", "The write-amplification breakdown covers the five FTLs.", func(rows []Result) error {
		return shape(rows, resultName, fiveFTLs...)
	}),
	claim("fig13wa.uftl-validity", "§5.3, Fig. 13 bottom", "µ-FTL pays over five times GeckoFTL's page-validity write-amplification.", func(rows []Result) error {
		by := keyed(rows, resultName)
		return need(by["uFTL"].ValidityWA > 5*by["GeckoFTL"].ValidityWA, "µ-FTL %.4g, GeckoFTL %.4g", by["uFTL"].ValidityWA, by["GeckoFTL"].ValidityWA)
	}),
	claim("fig13wa.dftl-no-validity", "§5.3, Fig. 13 bottom", "DFTL's RAM-resident PVB costs no page-validity write-amplification.", func(rows []Result) error {
		by := keyed(rows, resultName)
		return need(by["DFTL"].ValidityWA == 0, "DFTL validity WA %.4g", by["DFTL"].ValidityWA)
	}),
	claim("fig13wa.gecko-below-uftl", "§5.3, Fig. 13 bottom", "GeckoFTL's write-amplification is below µ-FTL's.", func(rows []Result) error {
		by := keyed(rows, resultName)
		return need(by["GeckoFTL"].WA < by["uFTL"].WA, "GeckoFTL %.4g, µ-FTL %.4g", by["GeckoFTL"].WA, by["uFTL"].WA)
	}),
	claim("fig13wa.gecko-near-ibftl", "§5.3, Fig. 13 bottom", "GeckoFTL's write-amplification is below 1.5 times IB-FTL's.", func(rows []Result) error {
		by := keyed(rows, resultName)
		return need(by["GeckoFTL"].WA < 1.5*by["IB-FTL"].WA, "GeckoFTL %.4g, IB-FTL %.4g", by["GeckoFTL"].WA, by["IB-FTL"].WA)
	}),
	claim("fig14.bigger-cache", "§5.4, Fig. 14", "µ-FTL gets a larger cache than DFTL from the same RAM budget.", func(rows []Figure14Row) error {
		by := keyed(rows, fig14Name)
		return need(by["uFTL"].CacheEntries > by["DFTL"].CacheEntries, "µ-FTL %d entries, DFTL %d", by["uFTL"].CacheEntries, by["DFTL"].CacheEntries)
	}),
	claim("fig14.gecko-translation", "§5.4, Fig. 14", "GeckoFTL's translation write-amplification is at most DFTL's.", func(rows []Figure14Row) error {
		by := keyed(rows, fig14Name)
		return need(by["GeckoFTL"].TranslationWA <= by["DFTL"].TranslationWA, "GeckoFTL %.4g, DFTL %.4g", by["GeckoFTL"].TranslationWA, by["DFTL"].TranslationWA)
	}),
	claim("fig14.gecko-lowest", "§5.4, Fig. 14", "GeckoFTL's write-amplification is the lowest of the three.", func(rows []Figure14Row) error {
		by := keyed(rows, fig14Name)
		g := by["GeckoFTL"].WA
		return need(g <= by["uFTL"].WA && g <= by["DFTL"].WA, "GeckoFTL %.4g, µ-FTL %.4g, DFTL %.4g", g, by["uFTL"].WA, by["DFTL"].WA)
	}),
	claim("recovery.battery", "§5.3, Fig. 13 middle", "DFTL recovers from its battery; GeckoFTL needs none.", func(rows []RecoveryResult) error {
		by := keyed(rows, recoveryName)
		return need(by["DFTL"].UsedBattery && !by["GeckoFTL"].UsedBattery, "battery used: DFTL %v, GeckoFTL %v", by["DFTL"].UsedBattery, by["GeckoFTL"].UsedBattery)
	}),
	claim("recovery.gecko-writes", "§4.3", "GeckoFTL's recovery writes no more pages than LazyFTL's, which synchronizes the entries it recovers.", func(rows []RecoveryResult) error {
		by := keyed(rows, recoveryName)
		return need(by["GeckoFTL"].PageWrites <= by["LazyFTL"].PageWrites, "GeckoFTL %d page writes, LazyFTL %d", by["GeckoFTL"].PageWrites, by["LazyFTL"].PageWrites)
	}),
	rowClaim("recovery.duration", "§4.3", "Every FTL's recovery takes time.", func(r RecoveryResult) error {
		return need(r.Duration > 0, "%s recovered in %v", r.Name, r.Duration)
	}),
	rowClaim("recovery-sweep.consistency", "Recovery sweep", "Every point recovers in positive time, its serial time is at least its wall-clock (equal on one shard), and it recovers at most its cache's worth of entries.", func(p RecoveryPoint) error {
		return need(p.WallClock > 0 && p.SerialTime >= p.WallClock && (p.Shards != 1 || p.WallClock == p.SerialTime) && p.RecoveredEntries <= p.CacheEntries,
			"%s %s: wall %v, serial %v, %d shards, %d entries for a %d-entry cache", p.Dimension, p.FTL, p.WallClock, p.SerialTime, p.Shards, p.RecoveredEntries, p.CacheEntries)
	}),
	claim("recovery-sweep.channels-parallel", "Recovery sweep", "At the widest channel count, recovery's wall-clock is under half its serial time, and the model predicts it below one channel's.", func(rows []RecoveryPoint) error {
		chans := dimension(rows, "channels")
		first, widest := chans[0], chans[len(chans)-1]
		return need(widest.Channels > first.Channels && 2*widest.WallClock < widest.SerialTime && widest.ModelWall < first.ModelWall,
			"%d channels: wall %v, serial %v, model %v; %d channel(s): model %v", widest.Channels, widest.WallClock, widest.SerialTime, widest.ModelWall, first.Channels, first.ModelWall)
	}),
	claim("recovery-sweep.channels-speedup", "Recovery sweep", "At the widest channel count, recovery's wall-clock is under half the one-channel wall-clock.", func(rows []RecoveryPoint) error {
		chans := dimension(rows, "channels")
		first, widest := chans[0], chans[len(chans)-1]
		return need(2*widest.WallClock < first.WallClock, "wall %v at %d channels, %v at %d", widest.WallClock, widest.Channels, first.WallClock, first.Channels)
	}).failsAt(ScaleOther, "19"),
	claim("recovery-sweep.checkpoint-bound", "Recovery sweep, §4.3", "The backwards scan recovers no more entries with a smaller cache: the recovered count follows the checkpointed cache capacity.", func(rows []RecoveryPoint) error {
		chans := dimension(rows, "channels")
		points := append(dimension(rows, "checkpoint"), chans[len(chans)-1])
		return every(points, func(a RecoveryPoint) error {
			return every(points, func(b RecoveryPoint) error {
				return need(a.CacheEntries >= b.CacheEntries || a.RecoveredEntries <= b.RecoveredEntries, "cache %d recovered %d entries, cache %d recovered %d", a.CacheEntries, a.RecoveredEntries, b.CacheEntries, b.RecoveredEntries)
			})
		})
	}),
	claim("recovery-sweep.lazy-slower", "Recovery sweep, Fig. 1", "At every device size LazyFTL recovers slower than GeckoFTL, measured and modelled.", func(rows []RecoveryPoint) error {
		pairs := recoveryPairs(rows)
		if len(pairs) < 2 {
			return fmt.Errorf("%d device sizes", len(pairs))
		}
		return every(pairs, func(p [2]RecoveryPoint) error {
			g, l := p[0], p[1]
			return need(g.FTL == "GeckoFTL" && l.FTL == "LazyFTL" && l.WallClock > g.WallClock && l.ModelWall > g.ModelWall,
				"%d blocks: %s %v (model %v), %s %v (model %v)", g.Blocks, l.FTL, l.WallClock, l.ModelWall, g.FTL, g.WallClock, g.ModelWall)
		})
	}),
	claim("recovery-sweep.gap-widens", "Recovery sweep, Fig. 1", "The LazyFTL - GeckoFTL recovery gap widens as the device grows, measured and modelled.", func(rows []RecoveryPoint) error {
		pairs := recoveryPairs(rows)
		for i := 1; i < len(pairs); i++ {
			a, b := pairs[i-1], pairs[i]
			prev, gap := a[1].WallClock-a[0].WallClock, b[1].WallClock-b[0].WallClock
			prevModel, model := a[1].ModelWall-a[0].ModelWall, b[1].ModelWall-b[0].ModelWall
			if gap <= prev || model <= prevModel {
				return fmt.Errorf("%d → %d blocks: gap %v → %v, model gap %v → %v", a[0].Blocks, b[0].Blocks, prev, gap, prevModel, model)
			}
		}
		return nil
	}),
	claim("channels.rows", "Channel sweep", "The default sweep measures 1, 2, 4 and 8 channels.", func(rows []ChannelPoint) error {
		return shape(rows, func(p ChannelPoint) string { return fmt.Sprint(p.Channels) }, "1", "2", "4", "8")
	}),
	claim("channels.consistency", "Channel sweep", "Every point measures at least the one-channel window, with WA and load imbalance at least 1 and positive measured and model throughput.", func(rows []ChannelPoint) error {
		return every(rows, func(p ChannelPoint) error {
			return need(p.Writes >= rows[0].Writes && p.WA >= 1 && p.LoadImbalance >= 1 && p.Throughput > 0 && p.ModelThroughput > 0,
				"%d channels: %d writes (one channel: %d), WA %.4g, imbalance %.4g, throughput %.4g, model %.4g", p.Channels, p.Writes, rows[0].Writes, p.WA, p.LoadImbalance, p.Throughput, p.ModelThroughput)
		})
	}),
	claim("channels.one-channel", "Channel sweep", "On one channel the wall-clock is the serial time and the speedup 1.", func(rows []ChannelPoint) error {
		p := rows[0]
		return need(p.Channels == 1 && p.Speedup == 1 && p.WallTime == p.SerialTime, "%d channel(s): speedup %.4g, wall %v, serial %v", p.Channels, p.Speedup, p.WallTime, p.SerialTime)
	}),
	claim("channels.four-channels", "Channel sweep", "Four channels run at least twice as fast as one, with the wall-clock under half the serial time.", func(rows []ChannelPoint) error {
		p := keyed(rows, func(p ChannelPoint) int { return p.Channels })[4]
		return need(p.Speedup >= 2 && p.WallTime < p.SerialTime/2, "4 channels: speedup %.3g, wall %v, serial %v", p.Speedup, p.WallTime, p.SerialTime)
	}),
	claim("latency.rows", "Latency sweep", "Three workloads, two victim policies, inline then incremental GC: twelve rows.", func(rows []LatencyPoint) error {
		return shape(rows, func(p LatencyPoint) string { return p.GCMode }, slices.Repeat([]string{"inline", "incremental"}, 6)...)
	}),
	rowClaim("latency.consistency", "Latency sweep", "Every point records one latency per measured write and sees GC-stalled writes.", func(p LatencyPoint) error {
		return need(p.Writes > 0 && p.Write.Count == p.Writes && p.GCStalledWrites.Count > 0, "%s/%s/%s: %d latencies for %d writes, %d stalled", p.Workload, p.Policy, p.GCMode, p.Write.Count, p.Writes, p.GCStalledWrites.Count)
	}),
	claim("latency.stall-bound", "Latency sweep", "Incremental GC never falls back to inline reclaim, and its worst stall is within the model's bound.", latencyPairs(func(inc, _ LatencyPoint) error {
		return need(inc.GCFallbacks == 0 && inc.MaxGCStall <= inc.ModelStallBound, "%s/%s: %d fallbacks, stall %v, bound %v", inc.Workload, inc.Policy, inc.GCFallbacks, inc.MaxGCStall, inc.ModelStallBound)
	})),
	claim("latency.wa-cost", "Latency sweep", "Incremental GC's write-amplification is within 5 % of inline's (10 % on uniform updates, the worst case for its headroom).", latencyPairs(func(inc, inl LatencyPoint) error {
		bar := 0.05
		if inc.Workload == "uniform" {
			bar = 0.10
		}
		return need(math.Abs(inc.WA-inl.WA) <= bar*inl.WA, "%s/%s: WA %.4g incremental, %.4g inline", inc.Workload, inc.Policy, inc.WA, inl.WA)
	})),
	claim("latency.zipfian-tail", "Latency sweep", "Under zipfian skew incremental GC's p99.9 write latency is strictly below inline's at both victim policies.", latencyPairs(func(inc, inl LatencyPoint) error {
		return need(inc.Workload != "zipfian" || inc.Write.P999 < inl.Write.P999, "%s/%s: p99.9 %v incremental, %v inline", inc.Workload, inc.Policy, inc.Write.P999, inl.Write.P999)
	})).failsAt(ScaleOther, "18"),
	claim("latency.more-stalled", "Latency sweep", "Incremental GC spreads the same reclaim over more writes: more writes see a stall than inline.", latencyPairs(func(inc, inl LatencyPoint) error {
		return need(inc.GCStalledWrites.Count > inl.GCStalledWrites.Count, "%s/%s: %d stalled writes incremental, %d inline", inc.Workload, inc.Policy, inc.GCStalledWrites.Count, inl.GCStalledWrites.Count)
	})),
	claim("trim.rows", "Trim sweep", "The sweep has four trim fractions.", func(rows []TrimPoint) error {
		return need(len(rows) == 4, "%d rows", len(rows))
	}),
	rowClaim("trim.consistency", "Trim sweep", "Every point measures writes; the zero fraction trims nothing, every other one sends trims, invalidates pages and records one latency per trim.", func(p TrimPoint) error {
		trims := p.Trims > 0 && p.TrimmedPages > 0
		if p.TrimFraction == 0 {
			trims = p.Trims == 0 && p.TrimmedPages == 0
		}
		return need(trims && p.Writes > 0 && p.Trim.Count == p.Trims, "f = %.2f: %d writes, %d trims, %d trimmed pages, %d trim latencies", p.TrimFraction, p.Writes, p.Trims, p.TrimmedPages, p.Trim.Count)
	}),
	claim("trim.wa-falls", "Trim sweep", "Write-amplification falls strictly as the trim fraction rises.", func(rows []TrimPoint) error {
		for i := 1; i < len(rows); i++ {
			if a, b := rows[i-1], rows[i]; !(b.TrimFraction > a.TrimFraction && b.WA < a.WA) {
				return fmt.Errorf("WA %.4g at f = %.2f, %.4g at f = %.2f", a.WA, a.TrimFraction, b.WA, b.TrimFraction)
			}
		}
		return nil
	}),
	claim("wear.rows", "Wear sweep", "Three workloads, two victim policies, and single, hot/cold and hot/cold wear-aware frontiers: eighteen rows.", func(rows []WearPoint) error {
		return shape(rows, func(p WearPoint) string { return fmt.Sprintf("%s/%v", p.Frontier, p.WearAware) }, slices.Repeat([]string{"single/false", "hotcold/false", "hotcold/true"}, 6)...)
	}),
	rowClaim("wear.consistency", "Wear sweep", "Every point measures writes and erases with WA at least 1, its erase spread is max minus min, and a single frontier routes no write hot.", func(p WearPoint) error {
		return need(p.Writes > 0 && p.WA >= 1 && p.Erases > 0 && p.EraseSpread == p.MaxErase-p.MinErase && p.EraseSpread >= 0 && (p.Frontier != "single" || p.HotWrites == 0),
			"%s/%s/%s: %d writes, WA %.4g, %d erases, spread %d (%d..%d), %d hot", p.Workload, p.Policy, p.Frontier, p.Writes, p.WA, p.Erases, p.EraseSpread, p.MinErase, p.MaxErase, p.HotWrites)
	}),
	claim("wear.separation-wins", "Wear sweep", "On skewed workloads hot/cold separation lowers write-amplification below the single frontier's, and the model predicts the win.", wearTriples(func(single, sep, _ WearPoint) error {
		return need(single.Workload == "uniform" || (sep.WA < single.WA && single.ModelSeparatedWA < single.ModelSingleWA),
			"%s/%s: WA %.4g hot/cold, %.4g single; model %.4g, %.4g", single.Workload, single.Policy, sep.WA, single.WA, single.ModelSeparatedWA, single.ModelSingleWA)
	})),
	claim("wear.classifier-splits", "Wear sweep", "On skewed workloads the heat classifier routes some, not all, writes hot.", wearTriples(func(single, sep, _ WearPoint) error {
		return need(single.Workload == "uniform" || (sep.HotWrites > 0 && sep.HotWrites < sep.Writes), "%s/%s: %d of %d writes hot", sep.Workload, sep.Policy, sep.HotWrites, sep.Writes)
	})),
	claim("wear.uniform-cost", "Wear sweep", "On uniform updates separation costs at most 10 % write-amplification.", wearTriples(func(single, sep, _ WearPoint) error {
		return need(single.Workload != "uniform" || sep.WA <= 1.10*single.WA, "%s/%s: WA %.4g hot/cold, %.4g single", single.Workload, single.Policy, sep.WA, single.WA)
	})),
	claim("wear.spread-no-wider", "Wear sweep", "Wear-aware allocation leaves the erase-count spread no wider.", wearTriples(func(_, sep, aware WearPoint) error {
		return need(aware.EraseSpread <= sep.EraseSpread, "%s/%s: spread %d wear-aware, %d without", sep.Workload, sep.Policy, aware.EraseSpread, sep.EraseSpread)
	})).failsAt(ScaleOther, "18"),
	claim("wear.aware-wa-cost", "Wear sweep", "Wear-aware allocation costs at most 10 % write-amplification.", wearTriples(func(_, sep, aware WearPoint) error {
		return need(aware.WA <= 1.10*sep.WA, "%s/%s: WA %.4g wear-aware, %.4g without", sep.Workload, sep.Policy, aware.WA, sep.WA)
	})),
	claim("endurance.rows", "Endurance sweep", "The baseline, then wear-aware allocation, at three fault rates each; every run dies of exhaustion, not at the write cap, after serving writes.", func(rows []EndurancePoint) error {
		if err := shape(rows, func(p EndurancePoint) string { return p.Policy }, "baseline", "baseline", "baseline", "wear-aware", "wear-aware", "wear-aware"); err != nil {
			return err
		}
		return every(rows, func(p EndurancePoint) error {
			return need(!p.Capped && p.Lifetime > 0, "%s at fault rate %.2f: lifetime %d, capped %v", p.Policy, p.FaultRate, p.Lifetime, p.Capped)
		})
	}),
	claim("endurance.faults-shorten", "Endurance sweep", "At a fixed policy lifetime falls strictly as the fault rate rises.", func(rows []EndurancePoint) error {
		for i := 1; i < len(rows); i++ {
			if a, b := rows[i-1], rows[i]; a.Policy == b.Policy && (b.FaultRate <= a.FaultRate || b.Lifetime >= a.Lifetime) {
				return fmt.Errorf("%s: lifetime %d at fault rate %.2f, %d at %.2f", a.Policy, a.Lifetime, a.FaultRate, b.Lifetime, b.FaultRate)
			}
		}
		return nil
	}),
	rowClaim("endurance.retries", "Endurance sweep", "Every nonzero fault rate leaves program retries behind.", func(p EndurancePoint) error {
		return need(p.FaultRate == 0 || p.ProgramRetries > 0, "%s at fault rate %.2f: no program retries", p.Policy, p.FaultRate)
	}),
	claim("endurance.wear-outlives", "Endurance sweep", "Wear-aware allocation outlives the baseline at every fault rate.", func(rows []EndurancePoint) error {
		return every([]int{0, 1, 2}, func(i int) error {
			b, w := rows[i], rows[i+3]
			return need(w.Lifetime > b.Lifetime, "fault rate %.2f: wear-aware %d writes, baseline %d", b.FaultRate, w.Lifetime, b.Lifetime)
		})
	}).failsAt(ScaleOther, "18"),
	claim("endurance.fault-free-spread", "Endurance sweep", "Without faults wear-aware allocation spends the erase budget more evenly than the baseline.", func(rows []EndurancePoint) error {
		return need(rows[3].EraseSpread < rows[0].EraseSpread, "spread %d wear-aware, %d baseline", rows[3].EraseSpread, rows[0].EraseSpread)
	}),
	claim("restart.rows", "Restart sweep", "Three growing device sizes, each with a nonempty checkpoint and a positive warm restart time.", func(rows []RestartPoint) error {
		if len(rows) != 3 {
			return fmt.Errorf("%d rows", len(rows))
		}
		for i, p := range rows {
			if p.CheckpointBytes <= 0 || p.WarmWallClock <= 0 || (i > 0 && p.Blocks <= rows[i-1].Blocks) {
				return fmt.Errorf("%d blocks: checkpoint %d bytes, warm %v", p.Blocks, p.CheckpointBytes, p.WarmWallClock)
			}
		}
		return nil
	}),
	rowClaim("restart.warm-wins", "Restart sweep", "A warm restart from the shutdown checkpoint beats cold GeckoRec recovery at every size, measured and modelled.", func(p RestartPoint) error {
		return need(p.WarmWallClock < p.ColdWallClock && p.Speedup > 1 && p.ModelWarm < p.ModelCold, "%d blocks: warm %v, cold %v, speedup %.3g; model warm %v, cold %v", p.Blocks, p.WarmWallClock, p.ColdWallClock, p.Speedup, p.ModelWarm, p.ModelCold)
	}),
	claim("restart.gap-widens", "Restart sweep", "The cold - warm gap is wider on the largest device than on the smallest.", func(rows []RestartPoint) error {
		first, last := rows[0], rows[len(rows)-1]
		a, b := first.ColdWallClock-first.WarmWallClock, last.ColdWallClock-last.WarmWallClock
		return need(b > a, "gap %v at %d blocks, %v at %d blocks", a, first.Blocks, b, last.Blocks)
	}),
	claim("queue.rows", "Queue sweep", "The sweep has the synchronous baseline, closed-loop depths 1 to 16, at least two Poisson shedding rates, one of them at least 1.5 times the knee, and the wait, unbounded and bursty overload rows.", func(rows []QueuePoint) error {
		q := queueRoles(rows)
		return need(q.sync.Ops > 0 && q.closed[8].Ops > 0 && len(q.shed) >= 2 && q.overload.Offered >= 1.5*q.overload.ModelKnee && q.wait.Ops > 0 && q.unbounded.Ops > 0 && q.bursty.Ops > 0,
			"sync %d ops, depth 8 %d ops, %d shedding rows, overload offered %.4g of knee %.4g, wait %d, unbounded %d, bursty %d ops", q.sync.Ops, q.closed[8].Ops, len(q.shed), q.overload.Offered, q.overload.ModelKnee, q.wait.Ops, q.unbounded.Ops, q.bursty.Ops)
	}),
	claim("queue.depth-scales", "Queue sweep", "Depth 8 through the async queue delivers at least 1.5 times the synchronous chain, depth 1 matches it within 5 %, and throughput does not fall (by over 2 %) as depth grows.", func(rows []QueuePoint) error {
		q := queueRoles(rows)
		d1, d8 := q.closed[1].Throughput/q.sync.Throughput, q.closed[8].Throughput/q.sync.Throughput
		if d8 < 1.5 || d1 < 0.95 || d1 > 1.05 {
			return fmt.Errorf("depth 1 and depth 8 at %.3gx and %.3gx the synchronous throughput", d1, d8)
		}
		depths := []int{1, 4, 8, 16}
		for i := 1; i < len(depths); i++ {
			if a, b := q.closed[depths[i-1]], q.closed[depths[i]]; b.Throughput < 0.98*a.Throughput {
				return fmt.Errorf("throughput %.4g at depth %d after %.4g at %d", b.Throughput, b.Depth, a.Throughput, a.Depth)
			}
		}
		return nil
	}),
	claim("queue.below-knee", "Queue sweep", "Below 0.8 of the model's knee, delivered throughput is within 20 % of the offered rate.", func(rows []QueuePoint) error {
		return every(queueRoles(rows).shed, func(p QueuePoint) error {
			return need(p.Offered >= 0.8*p.ModelKnee || math.Abs(p.Throughput-p.Offered) <= 0.2*p.Offered, "offered %.4g, delivered %.4g", p.Offered, p.Throughput)
		})
	}),
	claim("queue.knee", "Queue sweep", "Under overload, delivered throughput is within 20 % of the model's knee.", func(rows []QueuePoint) error {
		p := queueRoles(rows).overload
		return need(math.Abs(p.Throughput-p.ModelKnee) <= 0.2*p.ModelKnee, "offered %.4g, delivered %.4g, knee %.4g", p.Offered, p.Throughput, p.ModelKnee)
	}),
	claim("queue.admission", "Queue sweep", "Under overload shedding admission drops operations and accounts for every one, waiting admission delays operations and sheds none, and a bursty stream at the knee's nominal rate sheds in its bursts.", func(rows []QueuePoint) error {
		q := queueRoles(rows)
		o := q.overload
		return need(o.Shed > 0 && o.Completed+o.Shed == o.Ops && q.wait.Delayed > 0 && q.wait.Shed == 0 && q.bursty.Shed > 0,
			"shedding: %d ops, %d completed, %d shed; waiting: %d delayed, %d shed; bursty: %d shed", o.Ops, o.Completed, o.Shed, q.wait.Delayed, q.wait.Shed, q.bursty.Shed)
	}),
	claim("queue.tail-bound", "Queue sweep", "Under overload the shedding, waiting and bursty rows keep the completed p99.9 within twice the admission budget.", func(rows []QueuePoint) error {
		q := queueRoles(rows)
		return every([]QueuePoint{q.overload, q.wait, q.bursty}, func(p QueuePoint) error {
			return need(p.Latency.P999 <= 2*p.DelayBound, "%s/%s: p99.9 %v, budget %v", p.Workload, p.Policy, p.Latency.P999, p.DelayBound)
		})
	}).failsAt(ScaleOther, "5"),
	claim("queue.unbounded-collapses", "Queue sweep", "Without admission control nothing is shed or delayed, and the overload p99.9 is at least 5 times the shedding policy's.", func(rows []QueuePoint) error {
		q := queueRoles(rows)
		u := q.unbounded
		return need(u.Shed == 0 && u.Delayed == 0 && u.Latency.P999 >= 5*q.overload.Latency.P999, "unbounded: %d shed, %d delayed, p99.9 %v; shedding p99.9 %v", u.Shed, u.Delayed, u.Latency.P999, q.overload.Latency.P999)
	}),
	claim("summary.ram", "Abstract", "GeckoFTL needs at least 95 % less page-validity RAM than a RAM-resident PVB.", func(s HeadlineSummary) error {
		return need(s.RAMReduction >= 0.95, "reduction %.3f", s.RAMReduction)
	}),
	claim("summary.recovery", "Abstract", "GeckoFTL recovers at least 51 % faster than LazyFTL.", func(s HeadlineSummary) error {
		return need(s.RecoveryReduction >= 0.51, "reduction %.3f", s.RecoveryReduction)
	}),
	claim("summary.validity-wa", "Abstract", "Logarithmic Gecko's write-amplification is at least 80 % below the flash-resident PVB's (the paper: 98 %).", func(s HeadlineSummary) error {
		return need(s.ValidityWAReduction >= 0.80, "reduction %.3f", s.ValidityWAReduction)
	}),
}

// fig10WA is the write-amplification at block size b and partitioning
// factor f (-1 is the recommended one), or 0 if no row has them.
func fig10WA(rows []Figure10Row, b, f int) float64 {
	i := slices.IndexFunc(rows, func(r Figure10Row) bool { return r.BlockSize == b && r.PartitionFactor == f })
	if i < 0 {
		return 0
	}
	return rows[i].WA
}

func dimension(rows []RecoveryPoint, dim string) []RecoveryPoint {
	return slices.DeleteFunc(slices.Clone(rows), func(p RecoveryPoint) bool { return p.Dimension != dim })
}

// recoveryPairs returns the capacity rows as GeckoFTL, LazyFTL pairs, one
// per device size.
func recoveryPairs(rows []RecoveryPoint) [][2]RecoveryPoint {
	capacity := dimension(rows, "capacity")
	var pairs [][2]RecoveryPoint
	for i := 0; i+1 < len(capacity); i += 2 {
		pairs = append(pairs, [2]RecoveryPoint{capacity[i], capacity[i+1]})
	}
	return pairs
}

// latencyPairs lifts a predicate over each incremental row and its inline
// counterpart (same workload and policy) to the rows.
func latencyPairs(f func(inc, inl LatencyPoint) error) func([]LatencyPoint) error {
	type key struct{ wl, policy, mode string }
	return func(rows []LatencyPoint) error {
		by := keyed(rows, func(p LatencyPoint) key { return key{p.Workload, p.Policy, p.GCMode} })
		return every(rows, func(p LatencyPoint) error {
			if p.GCMode != "incremental" {
				return nil
			}
			return f(p, by[key{p.Workload, p.Policy, "inline"}])
		})
	}
}

// wearTriples lifts a predicate over each workload and policy's
// single-frontier, hot/cold and hot/cold wear-aware rows to the rows.
func wearTriples(f func(single, sep, aware WearPoint) error) func([]WearPoint) error {
	type key struct {
		wl, policy, frontier string
		aware                bool
	}
	return func(rows []WearPoint) error {
		by := keyed(rows, func(p WearPoint) key { return key{p.Workload, p.Policy, p.Frontier, p.WearAware} })
		return every(rows, func(p WearPoint) error {
			if p.Frontier != "single" {
				return nil
			}
			return f(p, by[key{p.Workload, p.Policy, "hotcold", false}], by[key{p.Workload, p.Policy, "hotcold", true}])
		})
	}
}

// queueRows picks the queue sweep's rows out by role: the synchronous
// baseline, the closed-loop rows by depth, the Poisson shedding rows and the
// highest-offered of them (the overload row), and the wait, unbounded and
// bursty overload rows.
type queueRows struct {
	sync, overload, wait, unbounded, bursty QueuePoint
	closed                                  map[int]QueuePoint
	shed                                    []QueuePoint
}

func queueRoles(rows []QueuePoint) queueRows {
	q := queueRows{closed: make(map[int]QueuePoint)}
	for _, p := range rows {
		switch {
		case p.Mode == "closed" && p.Policy == "sync":
			q.sync = p
		case p.Mode == "closed":
			q.closed[p.Depth] = p
		case p.Policy == "shed" && p.Workload == "uniform+poisson":
			q.shed = append(q.shed, p)
			if p.Offered > q.overload.Offered {
				q.overload = p
			}
		case p.Policy == "wait":
			q.wait = p
		case p.Policy == "unbounded":
			q.unbounded = p
		case p.Policy == "shed":
			q.bursty = p
		}
	}
	return q
}
