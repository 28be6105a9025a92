package ftl

import (
	"errors"
	"fmt"
	"time"
)

// ShardRecoveryReport is one shard's recovery outcome within an engine-wide
// recovery: the shard index plus its FTL-level report.
type ShardRecoveryReport struct {
	// Shard is the shard index (equal to the channel index when the engine
	// runs one shard per channel).
	Shard int
	RecoveryReport
}

// EngineRecoveryReport aggregates an engine-wide recovery. Recovery runs
// per-shard GeckoRec in parallel across channels; because recovery IO is
// dominated by spare-area reads of each shard's own dies, the wall-clock is
// the slowest shard's critical path while the serial time is what the same
// scan would cost on the paper's single serialized plane.
type EngineRecoveryReport struct {
	// Shards holds the per-shard breakdowns, indexed by shard.
	Shards []ShardRecoveryReport
	// WallClock is the slowest shard's recovery duration: the engine resumes
	// serving when its last shard finishes, and shards recover concurrently
	// on disjoint dies.
	WallClock time.Duration
	// SerialTime is the summed per-shard recovery duration: the cost of the
	// same recovery on a single serialized plane (a 1-shard engine has
	// WallClock == SerialTime).
	SerialTime time.Duration
	// SlowestShard is the index of the shard on the critical path.
	SlowestShard int
	// SpareReads, PageReads and PageWrites total the recovery IO of all
	// shards.
	SpareReads, PageReads, PageWrites int64
	// RecoveredMappingEntries totals the cached mapping entries recreated by
	// the shards' backwards scans.
	RecoveredMappingEntries int
	// UsedBattery reports that the shards synchronized dirty entries on
	// battery power at failure time instead of recovering them.
	UsedBattery bool
}

// Speedup returns SerialTime/WallClock: how much faster the parallel
// recovery finished than a single-plane scan of the same flash.
func (r *EngineRecoveryReport) Speedup() float64 {
	if r.WallClock <= 0 {
		return 1
	}
	return float64(r.SerialTime) / float64(r.WallClock)
}

// PowerFail simulates an abrupt, engine-wide power failure. For FTLs without
// a battery the shared device rail is cut first, without taking any shard
// lock, so batches in flight fail mid-operation exactly as on a real crash;
// battery FTLs (DFTL, µ-FTL) instead flush each shard's dirty state before
// the rail drops, as the paper assumes. Either way every shard then loses all
// RAM-resident state and every shard's power domain is marked failed, so a
// subsequent Recover rebuilds each shard from its own flash partition.
//
// PowerFail returns an error if the engine is already in the failed state,
// or the joined flush errors of battery shards whose flush failed — in the
// latter case the engine still ends power-failed (the flushes' dirty entries
// are lost, as on a real battery fault) and Recover remains available.
func (e *Engine) PowerFail() error {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if e.failed {
		return fmt.Errorf("ftl: engine PowerFail called while already power-failed")
	}
	if !e.shards[0].ftl.facts.battery {
		// Abrupt: in-flight shard operations start failing with
		// flash.ErrPowerFailed immediately, before we can take their locks.
		e.dev.PowerFail()
	}
	// Power is going down no matter what: even if a battery shard's flush
	// fails (its dirty entries are lost, as on a real battery fault), every
	// shard still crashes and the engine ends in the failed state, so
	// Recover stays reachable. The flush errors are reported to the caller.
	var errs []error
	for i, sh := range e.shards {
		sh.mu.Lock()
		if err := sh.ftl.PowerFail(); err != nil {
			errs = append(errs, fmt.Errorf("ftl: shard %d power fail: %w", i, err))
		}
		sh.mu.Unlock()
	}
	// Battery engines cut the rail only after every shard flushed.
	e.dev.PowerFail()
	e.failed = true
	return errors.Join(errs...)
}

// Recover restores the engine after an engine-wide PowerFail: the shared
// device rail is restored, then every shard runs its FTL recovery procedure
// (GeckoRec for GeckoFTL shards) concurrently, the first on the calling
// goroutine and each other one on a goroutine of its own. Recovery is
// spare-area-read dominated and each shard scans only its own partition's
// dies, so recovery wall-clock scales with channel parallelism.
//
// Recover returns an error when no PowerFail preceded it (including a second
// Recover after a successful one).
func (e *Engine) Recover() (*EngineRecoveryReport, error) {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if !e.failed {
		return nil, fmt.Errorf("ftl: engine Recover called without a preceding PowerFail")
	}
	// Restore the shared rail; each shard's own power domain stays failed
	// until that shard's recovery turns it back on.
	e.dev.PowerOn()

	for _, sh := range e.shards[1:] {
		e.recovering.Add(1)
		go func() {
			defer e.recovering.Done()
			sh.recover()
		}()
	}
	e.shards[0].recover()
	e.recovering.Wait()
	var errs []error
	for i, sh := range e.shards {
		if sh.recoverErr != nil {
			errs = append(errs, fmt.Errorf("ftl: shard %d recover: %w", i, sh.recoverErr))
		}
	}
	if err := errors.Join(errs...); err != nil {
		// Roll every shard back to the crashed state (shards that recovered
		// lose their rebuilt RAM again, shards that failed mid-recovery drop
		// their partial state) and cut the rail, so a retry of Recover starts
		// from a clean engine-wide crash instead of tripping over the
		// recovered shards' Powered() preconditions.
		for _, sh := range e.shards {
			sh.mu.Lock()
			sh.ftl.crash()
			sh.mu.Unlock()
		}
		e.dev.PowerFail()
		return nil, err
	}
	e.failed = false

	out := &EngineRecoveryReport{Shards: make([]ShardRecoveryReport, len(e.shards))}
	for i, sh := range e.shards {
		r := &sh.recovery
		out.Shards[i] = ShardRecoveryReport{Shard: i, RecoveryReport: *r}
		out.SerialTime += r.Duration
		if r.Duration > out.WallClock {
			out.WallClock = r.Duration
			out.SlowestShard = i
		}
		out.SpareReads += r.SpareReads
		out.PageReads += r.PageReads
		out.PageWrites += r.PageWrites
		out.RecoveredMappingEntries += r.RecoveredMappingEntries
		out.UsedBattery = out.UsedBattery || r.UsedBattery
	}
	return out, nil
}

// recover runs the shard's FTL recovery under the shard lock and keeps its
// outcome on the shard.
func (sh *engineShard) recover() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.recovery, sh.recoverErr = sh.ftl.Recover()
}
