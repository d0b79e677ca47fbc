package core

import (
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file implements the comparator classifiers of §5.4 inside the same
// infrastructure, exactly as the paper did ("We implemented the
// Record/Replay-Analyzer technique in Portend and compared accuracy
// empirically"; the ad-hoc-only detectors are derived analytically from
// their published algorithms).

// RRVerdict is the Record/Replay-Analyzer's [45] output: it knows only
// "likely harmful" vs "likely harmless".
type RRVerdict struct {
	// Harmful: replay failed, or the post-race states differ.
	Harmful bool
	// ReplayFailed: the alternate interleaving could not be enforced;
	// the analyzer conservatively reports harmful.
	ReplayFailed bool
	// StatesDiffer: concrete post-race memory differed.
	StatesDiffer bool
}

// RecordReplayAnalyzer classifies a race the way the Record/Replay-
// Analyzer does: enforce the alternate ordering once, compare the
// concrete memory state immediately after the race, and treat replay
// failure as harmful (§2.1, §5.4).
func (c *Classifier) RecordReplayAnalyzer(rep *race.Report, tr *trace.Trace) (RRVerdict, error) {
	ctx, err := c.replayToRace(rep, tr)
	if err != nil {
		return RRVerdict{Harmful: true, ReplayFailed: true}, nil
	}
	enf := c.enforceAlternate(ctx.pre, ctx.st, ctx.firstTID, ctx.secondTID, ctx.space, ctx.obj, vm.NewRoundRobin())
	switch enf.outcome {
	case enfOK:
		return RRVerdict{Harmful: enf.statesDiffer, StatesDiffer: enf.statesDiffer}, nil
	case enfError:
		return RRVerdict{Harmful: true, StatesDiffer: true}, nil
	default:
		// Timeout / stuck / no access: replay failure.
		return RRVerdict{Harmful: true, ReplayFailed: true}, nil
	}
}

// AdHocVerdict is the output of the ad-hoc-synchronization detectors
// (Helgrind+ [27], Ad-Hoc-Detector [55]): they either prune a race as
// ad-hoc synchronization or leave it unclassified.
type AdHocVerdict struct {
	// SingleOrdering: the race is protected by ad-hoc synchronization.
	SingleOrdering bool
	// Classified is false when the detector has nothing to say (every
	// non-ad-hoc race).
	Classified bool
}

// AdHocDetector classifies only ad-hoc synchronization: a race whose
// alternate enforcement times out spinning on shared state, or whose
// racing read is a busy-wait poll, is "single ordering"; everything else
// is not classified (§5.4 assumes these tools are perfect on the ad-hoc
// races and silent on the rest).
func (c *Classifier) AdHocDetector(rep *race.Report, tr *trace.Trace) (AdHocVerdict, error) {
	ctx, err := c.replayToRace(rep, tr)
	if err != nil {
		return AdHocVerdict{}, err
	}
	if ctx.spinRead {
		return AdHocVerdict{SingleOrdering: true, Classified: true}, nil
	}
	enf := c.enforceAlternate(ctx.pre, nil, ctx.firstTID, ctx.secondTID, ctx.space, ctx.obj, vm.NewRoundRobin())
	switch enf.outcome {
	case enfTimeout:
		if enf.diag.Looping && enf.diag.WritableByOther {
			return AdHocVerdict{SingleOrdering: true, Classified: true}, nil
		}
	case enfStuck, enfNoAccess:
		if !enf.blockedOnFirst {
			return AdHocVerdict{SingleOrdering: true, Classified: true}, nil
		}
	}
	return AdHocVerdict{}, nil
}
