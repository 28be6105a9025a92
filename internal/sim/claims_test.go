package sim

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"geckoftl/internal/model"
)

// golden decodes testdata/bench/<name>.quick.json into a new value of the
// experiment's row type and returns the pointer to it.
func golden(t *testing.T, e Experiment) any {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "bench", e.Name+".quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := e.NewRows()
	if err := json.Unmarshal(raw, rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func deref(p any) any { return reflect.ValueOf(p).Elem().Interface() }

// TestClaimsHoldOnGoldens evaluates every experiment's claims on its recorded
// quick-scale rows, so no simulation runs: each claim must hold, and must be
// required to, at the quick scale. Every claim of the table belongs to one
// experiment, under a unique id.
func TestClaimsHoldOnGoldens(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			if len(e.Claims) == 0 {
				t.Error("no claims")
			}
			for _, v := range e.Verdicts(deref(golden(t, e)), QuickScale()) {
				if !v.Holds || !v.MustHold || seen[v.Claim] {
					t.Errorf("%s: %s (must hold: %v, repeated: %v)", v.Claim, v, v.MustHold, seen[v.Claim])
				}
				seen[v.Claim] = true
			}
		})
	}
	if len(seen) != len(claims) {
		t.Errorf("%d of the table's %d claims belong to an experiment", len(seen), len(claims))
	}
}

// mutate adapts a mutation of rows of type R.
func mutate[R any](f func(*R)) func(any) { return func(p any) { f(p.(*R)) } }

// witnesses holds, per claim, one change to its experiment's golden rows that
// the claim must reject. Row indexes follow the golden files.
var witnesses = map[string]func(any){
	"fig1.rows":                   mutate(func(r *[]model.CapacityPoint) { *r = (*r)[:4] }),
	"table1.rows":                 mutate(func(r *[]model.Table1Row) { *r = (*r)[:2] }),
	"fig9.rows":                   mutate(func(r *[]Figure9Row) { (*r)[2].Name = "gecko(T=3)" }),
	"fig9.gecko-below-pvb":        mutate(func(r *[]Figure9Row) { (*r)[3].WA = (*r)[0].WA }),
	"fig9.small-t":                mutate(func(r *[]Figure9Row) { (*r)[1].WA = 1.01 * (*r)[5].WA }),
	"fig10.unpartitioned-grows":   mutate(func(r *[]Figure10Row) { (*r)[9].WA = 1.5 * (*r)[0].WA }),
	"fig10.partitioning-flattens": mutate(func(r *[]Figure10Row) { (*r)[10].WA = (*r)[9].WA }),
	"fig11.rows":                  mutate(func(r *[]Figure11Row) { *r = (*r)[:2] }),
	"fig11.gecko-below-pvb":       mutate(func(r *[]Figure11Row) { (*r)[2].GeckoWA = (*r)[2].PVBWA }),
	"fig11.gecko-no-shrink":       mutate(func(r *[]Figure11Row) { (*r)[3].GeckoWA = 0.7 * (*r)[0].GeckoWA }),
	"fig11.pvb-flat":              mutate(func(r *[]Figure11Row) { (*r)[3].PVBWA = 1.4 * (*r)[0].PVBWA }),
	"fig12.rows":                  mutate(func(r *[]Figure12Row) { *r = (*r)[:4] }),
	"fig12.gc-queries-rise":       mutate(func(r *[]Figure12Row) { (*r)[4].GCQueries = (*r)[0].GCQueries }),
	"fig12.wa-low":                mutate(func(r *[]Figure12Row) { (*r)[2].WA = 0.61 }),
	"fig13ram.rows":               mutate(func(r *[]model.RAMBreakdown) { (*r)[4].FTL = model.DFTL }),
	"fig13rec.rows":               mutate(func(r *[]model.RecoveryBreakdown) { *r = (*r)[:4] }),
	"fig13wa.rows":                mutate(func(r *[]Result) { *r = (*r)[1:] }),
	"fig13wa.uftl-validity":       mutate(func(r *[]Result) { (*r)[2].ValidityWA = 5 * (*r)[4].ValidityWA }),
	"fig13wa.dftl-no-validity":    mutate(func(r *[]Result) { (*r)[0].ValidityWA = 0.01 }),
	"fig13wa.gecko-below-uftl":    mutate(func(r *[]Result) { (*r)[4].WA = (*r)[2].WA }),
	"fig13wa.gecko-near-ibftl":    mutate(func(r *[]Result) { (*r)[4].WA = 1.5 * (*r)[3].WA }),
	"fig14.bigger-cache":          mutate(func(r *[]Figure14Row) { (*r)[1].CacheEntries = (*r)[0].CacheEntries }),
	"fig14.gecko-translation":     mutate(func(r *[]Figure14Row) { (*r)[2].TranslationWA = 1.01 * (*r)[0].TranslationWA }),
	"fig14.gecko-lowest":          mutate(func(r *[]Figure14Row) { (*r)[2].WA = 1.01 * (*r)[0].WA }),
	"summary.ram":                 mutate(func(r *HeadlineSummary) { r.RAMReduction = 0.94 }),
	"summary.recovery":            mutate(func(r *HeadlineSummary) { r.RecoveryReduction = 0.50 }),
	"summary.validity-wa":         mutate(func(r *HeadlineSummary) { r.ValidityWAReduction = 0.79 }),
	"channels.rows":               mutate(func(r *[]ChannelPoint) { *r = (*r)[:3] }),
	"channels.consistency":        mutate(func(r *[]ChannelPoint) { (*r)[2].LoadImbalance = 0.99 }),
	"channels.one-channel":        mutate(func(r *[]ChannelPoint) { (*r)[0].WallTime-- }),
	"channels.four-channels":      mutate(func(r *[]ChannelPoint) { (*r)[2].Speedup = 1.9 }),
	"restart.rows":                mutate(func(r *[]RestartPoint) { (*r)[2].Blocks = (*r)[1].Blocks }),
	"restart.warm-wins":           mutate(func(r *[]RestartPoint) { (*r)[0].ModelWarm = (*r)[0].ModelCold }),
	"restart.gap-widens": mutate(func(r *[]RestartPoint) {
		(*r)[2].ColdWallClock = (*r)[2].WarmWallClock + (*r)[0].ColdWallClock - (*r)[0].WarmWallClock
	}),
	"trim.rows":                   mutate(func(r *[]TrimPoint) { *r = (*r)[:3] }),
	"trim.consistency":            mutate(func(r *[]TrimPoint) { (*r)[0].TrimmedPages = 1 }),
	"trim.wa-falls":               mutate(func(r *[]TrimPoint) { (*r)[2].WA = (*r)[1].WA }),
	"endurance.rows":              mutate(func(r *[]EndurancePoint) { (*r)[1].Capped = true }),
	"endurance.faults-shorten":    mutate(func(r *[]EndurancePoint) { (*r)[2].Lifetime = (*r)[1].Lifetime }),
	"endurance.retries":           mutate(func(r *[]EndurancePoint) { (*r)[4].ProgramRetries = 0 }),
	"endurance.wear-outlives":     mutate(func(r *[]EndurancePoint) { (*r)[5].Lifetime = (*r)[2].Lifetime }),
	"endurance.fault-free-spread": mutate(func(r *[]EndurancePoint) { (*r)[3].EraseSpread = (*r)[0].EraseSpread }),
	// recovery-sweep rows: 0-3 channels 1, 2, 4, 8; 4-5 checkpoint caches
	// 128 and 512; 6-14 capacity: DFTL, LazyFTL, µ-FTL, IB-FTL and GeckoFTL
	// at 256 blocks, then GeckoFTL and LazyFTL at 512 and at 1024 blocks.
	"recovery-sweep.consistency":       mutate(func(r *[]RecoveryPoint) { (*r)[0].SerialTime++ }),
	"recovery-sweep.channels-parallel": mutate(func(r *[]RecoveryPoint) { (*r)[3].WallClock = (*r)[3].SerialTime / 2 }),
	"recovery-sweep.channels-speedup":  mutate(func(r *[]RecoveryPoint) { (*r)[3].WallClock = (*r)[0].WallClock / 2 }),
	"recovery-sweep.checkpoint-bound":  mutate(func(r *[]RecoveryPoint) { (*r)[4].RecoveredEntries = (*r)[3].RecoveredEntries + 1 }),
	"recovery-sweep.battery":           mutate(func(r *[]RecoveryPoint) { (*r)[10].UsedBattery = true }),
	"recovery-sweep.gecko-writes":      mutate(func(r *[]RecoveryPoint) { (*r)[10].PageWrites = (*r)[7].PageWrites + 1 }),
	"recovery-sweep.lazy-slower":       mutate(func(r *[]RecoveryPoint) { (*r)[12].WallClock = (*r)[11].WallClock }),
	"recovery-sweep.gap-widens": mutate(func(r *[]RecoveryPoint) {
		(*r)[14].WallClock = (*r)[13].WallClock + (*r)[12].WallClock - (*r)[11].WallClock
	}),
	// latency rows: inline then incremental for uniform, zipfian and hotcold
	// under metadata-aware then greedy.
	"latency.rows":         mutate(func(r *[]LatencyPoint) { (*r)[1].GCMode = "inline" }),
	"latency.consistency":  mutate(func(r *[]LatencyPoint) { (*r)[0].Write.Count-- }),
	"latency.stall-bound":  mutate(func(r *[]LatencyPoint) { (*r)[1].MaxGCStall = (*r)[1].ModelStallBound + 1 }),
	"latency.wa-cost":      mutate(func(r *[]LatencyPoint) { (*r)[5].WA = 1.06 * (*r)[4].WA }),
	"latency.zipfian-tail": mutate(func(r *[]LatencyPoint) { (*r)[5].Write.P999 = (*r)[4].Write.P999 }),
	"latency.more-stalled": mutate(func(r *[]LatencyPoint) { (*r)[9].GCStalledWrites.Count = (*r)[8].GCStalledWrites.Count }),
	// wear rows: single, hot/cold, hot/cold wear-aware, for uniform, zipfian
	// and hotcold under metadata-aware then cost-benefit.
	"wear.rows":              mutate(func(r *[]WearPoint) { *r = (*r)[:17] }),
	"wear.consistency":       mutate(func(r *[]WearPoint) { (*r)[0].EraseSpread++ }),
	"wear.separation-wins":   mutate(func(r *[]WearPoint) { (*r)[6].ModelSeparatedWA = (*r)[6].ModelSingleWA }),
	"wear.classifier-splits": mutate(func(r *[]WearPoint) { (*r)[7].HotWrites = (*r)[7].Writes }),
	"wear.uniform-cost":      mutate(func(r *[]WearPoint) { (*r)[1].WA = 1.11 * (*r)[0].WA }),
	"wear.spread-no-wider":   mutate(func(r *[]WearPoint) { (*r)[2].EraseSpread = (*r)[1].EraseSpread + 1 }),
	"wear.aware-wa-cost":     mutate(func(r *[]WearPoint) { (*r)[2].WA = 1.11 * (*r)[1].WA }),
	// queue rows: the synchronous baseline, closed-loop depths 1, 4, 8 and
	// 16, four Poisson shedding rates (the last the overload), then wait,
	// unbounded and bursty.
	"queue.rows":                mutate(func(r *[]QueuePoint) { *r = (*r)[:11] }),
	"queue.depth-scales":        mutate(func(r *[]QueuePoint) { (*r)[4].Throughput = 0.97 * (*r)[3].Throughput }),
	"queue.below-knee":          mutate(func(r *[]QueuePoint) { (*r)[5].Throughput = 0.79 * (*r)[5].Offered }),
	"queue.knee":                mutate(func(r *[]QueuePoint) { (*r)[8].Throughput = 0.79 * (*r)[8].ModelKnee }),
	"queue.admission":           mutate(func(r *[]QueuePoint) { (*r)[8].Completed-- }),
	"queue.tail-bound":          mutate(func(r *[]QueuePoint) { (*r)[9].Latency.P999 = 2*(*r)[9].DelayBound + 1 }),
	"queue.unbounded-collapses": mutate(func(r *[]QueuePoint) { (*r)[10].Latency.P999 = 4 * (*r)[8].Latency.P999 }),
}

// TestClaimWitnesses requires every claim to fail on its witness, so no
// claim holds vacuously, and every witness to belong to a claim.
func TestClaimWitnesses(t *testing.T) {
	if len(witnesses) != len(claims) {
		t.Errorf("%d witnesses for %d claims", len(witnesses), len(claims))
	}
	for _, e := range Experiments() {
		for _, c := range e.Claims {
			t.Run(c.ID, func(t *testing.T) {
				witness, ok := witnesses[c.ID]
				if !ok {
					t.Fatal("no mutation witness")
				}
				rows := golden(t, e)
				witness(rows)
				if c.eval(deref(rows)) == nil {
					t.Error("holds on its witness")
				}
			})
		}
	}
}

// TestRecoveryPairsIgnoreRowOrder requires recoveryPairs to pair GeckoFTL
// with LazyFTL by device size and name, not by position: shuffled capacity
// rows, with the other FTLs' base-size rows between a GeckoFTL row and its
// LazyFTL row, give the pairs of the golden's order.
func TestRecoveryPairsIgnoreRowOrder(t *testing.T) {
	registry := Experiments()
	sweep := registry[slices.IndexFunc(registry, func(e Experiment) bool { return e.Name == "recovery-sweep" })]
	rows := *golden(t, sweep).(*[]RecoveryPoint)
	want := recoveryPairs(rows)
	if len(want) != len(capacityFactors) {
		t.Fatalf("%d pairs from the golden, want %d", len(want), len(capacityFactors))
	}
	shuffled := slices.Clone(rows)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// Put the base size's GeckoFTL row first and its LazyFTL row last, with
	// the DFTL, µ-FTL and IB-FTL rows between them.
	base := baseSize(rows)
	others := slices.DeleteFunc(slices.Clone(base), func(p RecoveryPoint) bool { return p.FTL == "GeckoFTL" || p.FTL == "LazyFTL" })
	if len(others) != 3 {
		t.Fatalf("base size has %d rows besides GeckoFTL and LazyFTL, want 3", len(others))
	}
	rest := slices.DeleteFunc(shuffled, func(p RecoveryPoint) bool { return p.Dimension == "capacity" && p.Blocks == base[0].Blocks })
	by := keyed(base, recoveryFTL)
	mixed := append([]RecoveryPoint{by["GeckoFTL"]}, others...)
	mixed = append(append(mixed, by["LazyFTL"]), rest...)
	if got := recoveryPairs(mixed); !reflect.DeepEqual(got, want) {
		t.Errorf("shuffled rows pair as %+v, want %+v", got, want)
	}
}
