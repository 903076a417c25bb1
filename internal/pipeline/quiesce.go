package pipeline

// Quiescence support: the simulator's fast-forward path may skip pipeline
// cycles wholesale, but only when a cycle is provably a structural no-op.
// Quiesced is that proof; SkipQuiesced applies the bookkeeping the skipped
// Step calls would have performed. The contract both functions share:
//
//	for Quiesced() == true, Step() would perform zero fetch/dispatch/
//	issue/writeback/commit work, make no memory-port calls, and change
//	no state except the per-cycle counters SkipQuiesced replicates.
//
// The predicate is conservative — reporting false merely keeps the
// simulator on the (always correct) per-cycle path — but every true must
// be exact, because the fast-forward path's results are required to be
// bit-identical to per-cycle execution.

// Quiesced reports whether the next Step is provably a structural no-op:
// nothing can commit, write back, issue, dispatch or fetch until an
// external memory event (an L2 fill or I-fetch fill) arrives. It holds
// across consecutive cycles until such an event, because every condition
// below depends only on state that external callbacks change. Every check
// is O(1): the ready set and the execution lists already name the only
// entries that could act.
//
//vsv:hotpath
func (p *Pipeline) Quiesced() bool {
	// Issue and writeback: no entry may be ready to issue — even a failed
	// attempt (FU busy, MSHR full, unknown store address) probes structures
	// or the memory port every cycle — and every issued entry must be
	// waiting on memory with no fill delivered yet. Anything on execList (an
	// execLeft countdown) or filled (a delivered fill) makes progress on its
	// own.
	if p.nReady > 0 || len(p.execList) > 0 || len(p.filled) > 0 {
		return false
	}
	// Commit: the head entry must not be retirable. A completed head would
	// commit (or, for stores, probe the memory port and count a
	// StoreCommitStalls on MSHR pressure — a retry we must not skip).
	if p.count > 0 && p.ruu[p.head].completed {
		return false
	}
	// Dispatch: the fetch-queue head must be blocked by a full RUU or LSQ.
	// (The fetchedAt same-cycle condition is transient — it clears after
	// one Step — and never holds between Steps; treated as not quiesced
	// for safety.)
	if p.fqLen > 0 {
		fe := &p.fq[p.fqHead]
		if fe.fetchedAt >= p.step {
			return false
		}
		if p.count < p.cfg.RUUSize &&
			!(fe.inst.Op.IsMem() && p.lsqCount >= p.cfg.LSQSize) {
			return false
		}
	}
	// Fetch: blocked on an outstanding I-fetch miss or an unresolved
	// misprediction (both cleared only by external events / writeback,
	// which the conditions above rule out), or on a full fetch queue while
	// dispatch is blocked. A fetchResumeStep wait resolves by itself on a
	// future cycle, not at an external event, so it is not quiesced.
	switch {
	case p.waitingIFetch, p.haveMispredict:
	case p.step < p.fetchResumeStep:
		return false
	case p.fqLen < len(p.fq):
		return false
	}
	return true
}

// SkipQuiesced applies the per-cycle bookkeeping of `edges` pipeline cycles
// for which Quiesced held: the cycle counter, the zero-issue count the VSV
// FSMs threshold against, and the stall counters the blocked stages would
// have incremented. The caller must have established Quiesced() and must
// guarantee no external event lands within the span.
//
//vsv:hotpath
func (p *Pipeline) SkipQuiesced(edges int64) {
	if edges <= 0 {
		return
	}
	p.step += edges
	p.stats.Steps += edges
	p.stats.ZeroIssueCycles += uint64(edges)
	if p.waitingIFetch {
		p.stats.FetchStallIL1 += uint64(edges)
	} else if p.haveMispredict {
		p.stats.FetchStallBranch += uint64(edges)
	}
	if p.fqLen > 0 {
		// Quiesced established the head is blocked; dispatch charges the
		// stall to whichever structure is full, once per cycle.
		if p.count >= p.cfg.RUUSize {
			p.stats.RUUFullStalls += uint64(edges)
		} else if p.fq[p.fqHead].inst.Op.IsMem() && p.lsqCount >= p.cfg.LSQSize {
			p.stats.LSQFullStalls += uint64(edges)
		}
	}
}
