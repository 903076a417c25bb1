package pipeline

import (
	"math/bits"

	"repro/internal/isa"
)

// Step advances the pipeline by one cycle at machine time `now` (ticks).
// Phases run in reverse pipeline order — commit, writeback, issue,
// dispatch, fetch — so results flow between stages with the right
// one-cycle boundaries.
//
//vsv:hotpath
func (p *Pipeline) Step(now int64) StepResult {
	var r StepResult
	p.commit(now, &r)
	p.writeback(&r)
	p.issue(now, &r)
	p.dispatch(&r)
	p.fetch(now, &r)
	p.step++
	p.stats.Steps++
	if r.Issued == 0 {
		p.stats.ZeroIssueCycles++
	}
	return r
}

// commit retires completed instructions in order from the RUU head.
func (p *Pipeline) commit(now int64, r *StepResult) {
	for n := 0; n < p.cfg.CommitWidth && p.count > 0; n++ {
		idx := p.head
		e := &p.ruu[idx]
		if !e.completed {
			return
		}
		if e.inst.Op == isa.OpStore {
			if !p.port.StoreCommit(e.inst.Addr, now) {
				p.stats.StoreCommitStalls++
				return
			}
			p.stats.Stores++
			r.Activity.DL1Access++
			// Stores retire strictly in order, so the head of storeQ is this
			// store; pop it.
			p.storeQHead++
			if p.storeQHead == len(p.storeQ) {
				p.storeQ = p.storeQ[:0]
				p.storeQHead = 0
			}
		}
		// Clear the rename-table entry if this instruction is still the
		// architecturally latest writer of its destination.
		if e.inst.HasDst() && p.lastWriter[e.inst.Dst] == idx {
			p.lastWriter[e.inst.Dst] = -1
		}
		if e.inst.Op.IsMem() {
			p.lsqCount--
		}
		e.valid = false
		e.dependents = e.dependents[:0]
		if p.head++; p.head == len(p.ruu) {
			p.head = 0
		}
		p.count--
		p.stats.Committed++
		r.Committed++
		r.Activity.Commits++
	}
}

// writeback advances executing instructions and completes those that
// finish, plus the loads whose data arrived since the last edge, waking
// their dependents. Only the entries that can act this cycle (execList,
// filled) are touched; completion effects within one cycle commute, so list
// order is as good as age order.
func (p *Pipeline) writeback(r *StepResult) {
	kept := p.execList[:0]
	for _, idx := range p.execList {
		e := &p.ruu[idx]
		if e.execLeft--; e.execLeft > 0 {
			kept = append(kept, idx)
			continue
		}
		p.complete(int(idx), r)
	}
	p.execList = kept
	for _, idx := range p.filled {
		p.complete(int(idx), r)
	}
	p.filled = p.filled[:0]
}

func (p *Pipeline) complete(idx int, r *StepResult) {
	e := &p.ruu[idx]
	e.completed = true
	p.stats.Completed++
	r.Activity.Writebacks++
	if e.inst.HasDst() {
		r.Activity.RegWrites++
	}
	if e.inst.Op == isa.OpStore {
		e.addrKnown = true
	}
	for _, dep := range e.dependents {
		d := &p.ruu[dep]
		if d.valid && d.pendingSrcs > 0 {
			d.pendingSrcs--
			r.Activity.Wakeups++
			if d.pendingSrcs == 0 {
				p.markReady(dep)
			}
		}
	}
	e.dependents = e.dependents[:0]
	// A resolving mispredicted branch schedules the fetch restart.
	if e.mispredicted && p.haveMispredict && e.seq == p.mispredictSeq {
		p.haveMispredict = false
		p.fetchResumeStep = p.step + int64(p.cfg.MispredictPenalty)
	}
}

// issue selects ready instructions oldest-first, honoring issue width and
// functional-unit availability. It walks the ready set from the RUU head to
// the end of the array, then from slot 0 up to the head: the window occupies
// [head, head+count) circularly, so that is age order.
func (p *Pipeline) issue(now int64, r *StepResult) {
	if p.nReady == 0 {
		return
	}
	issued := p.issueRange(p.head, len(p.ruu), 0, now, r)
	if issued < p.cfg.IssueWidth {
		p.issueRange(0, p.head, issued, now, r)
	}
}

// issueRange tries to issue the ready entries in slots [lo, hi) in slot
// order until the issue width is used up. issued counts the instructions
// already issued this cycle; the updated count is returned. An entry that
// cannot issue (FU busy, an older store's address unknown, MSHR full) stays
// ready and retries next cycle.
func (p *Pipeline) issueRange(lo, hi, issued int, now int64, r *StepResult) int {
	for w := lo >> 6; w<<6 < hi; w++ {
		set := p.ready[w]
		if base := w << 6; lo > base {
			set &= ^uint64(0) << uint(lo-base)
		}
		if end := hi - w<<6; end < 64 {
			set &= 1<<uint(end) - 1
		}
		for set != 0 {
			b := bits.TrailingZeros64(set)
			set &= set - 1
			idx := w<<6 | b
			if !p.issueOne(idx, now, r) {
				continue
			}
			p.ready[w] &^= 1 << uint(b)
			p.nReady--
			if issued++; issued >= p.cfg.IssueWidth {
				return issued
			}
		}
	}
	return issued
}

// issueOne attempts to issue the ready entry at idx, reporting success.
func (p *Pipeline) issueOne(idx int, now int64, r *StepResult) bool {
	e := &p.ruu[idx]
	ok := true
	switch e.inst.Op {
	case isa.OpLoad:
		ok = p.tryIssueLoad(idx, now, r)
	case isa.OpPrefetch:
		p.issuePrefetch(idx, now, r)
	default:
		ok = p.tryIssueALU(idx, r)
	}
	if !ok {
		return false
	}
	if !e.waitingMem {
		p.execList = append(p.execList, int32(idx))
	}
	r.Issued++
	p.stats.Issued++
	r.Activity.Issued++
	if e.inst.Src1.Valid() {
		r.Activity.RegReads++
	}
	if e.inst.Src2.Valid() {
		r.Activity.RegReads++
	}
	if e.inst.Op.IsMem() {
		r.Activity.LSQOps++
	}
	return true
}

// markReady adds the entry at idx to the ready set.
func (p *Pipeline) markReady(idx int) {
	p.ready[idx>>6] |= 1 << uint(idx&63)
	p.nReady++
}

// takeFU reserves a functional unit for op; it returns false if none is
// free this cycle.
func (p *Pipeline) takeFU(op isa.OpClass) bool {
	pool := op.Pool()
	if pool == isa.FUNone {
		return true
	}
	units := p.fuFreeAt[pool]
	for i := range units {
		if units[i] <= p.step {
			if op.Pipelined() {
				units[i] = p.step + 1
			} else {
				units[i] = p.step + int64(op.Latency())
			}
			return true
		}
	}
	return false
}

func (p *Pipeline) tryIssueALU(idx int, r *StepResult) bool {
	e := &p.ruu[idx]
	if !p.takeFU(e.inst.Op) {
		return false
	}
	e.issued = true
	e.execLeft = e.inst.Op.Latency()
	r.Activity.FUOps[e.inst.Op.Pool()]++
	return true
}

// tryIssueLoad handles store-to-load forwarding, memory-ordering waits and
// the cache access.
func (p *Pipeline) tryIssueLoad(idx int, now int64, r *StepResult) bool {
	e := &p.ruu[idx]
	// Memory ordering (oracle disambiguation, as in sim-outorder): scan
	// older stores to the same block. A completed (address-known) match
	// forwards; an address-unknown match blocks issue. storeQ holds the
	// in-flight stores in age order; entries at or past the load's seq are
	// younger and do not constrain it.
	blk := e.inst.Addr >> 5 // block granularity for aliasing (32 B)
	forward := false
	for i := p.storeQHead; i < len(p.storeQ); i++ {
		s := &p.storeQ[i]
		if s.seq >= e.seq {
			break
		}
		if s.block != blk {
			continue
		}
		if !p.ruu[s.idx].addrKnown {
			return false // must wait for the older store's address
		}
		forward = true // latest older match wins; keep scanning
	}
	if !p.takeFU(isa.OpLoad) {
		return false
	}
	if forward {
		e.issued = true
		e.execLeft = 2 // address generation + LSQ forward
		p.stats.LoadFwds++
		r.Activity.FUOps[isa.FUIntALU]++
		r.Activity.DL1Access++
		return true
	}
	res := p.port.Load(e.inst.Addr, uint64(idx), false, now)
	if res.Stall {
		// MSHR full: release nothing (FU reservations are per-cycle and
		// this one is wasted — an acceptable structural artifact), retry
		// next cycle.
		return false
	}
	e.issued = true
	p.stats.Loads++
	r.Activity.FUOps[isa.FUIntALU]++
	r.Activity.DL1Access++
	if res.BufferHit {
		r.Activity.BufAccess++
	}
	if res.Async {
		e.waitingMem = true
	} else {
		e.execLeft = 1 + res.HitCycles // address generation + access
	}
	return true
}

func (p *Pipeline) issuePrefetch(idx int, now int64, r *StepResult) {
	e := &p.ruu[idx]
	// Non-binding: fire the probe and complete regardless of hit/miss; a
	// full MSHR simply drops the prefetch.
	p.port.Load(e.inst.Addr, uint64(idx), true, now)
	p.stats.Prefetches++
	e.issued = true
	e.execLeft = 1
	r.Activity.FUOps[isa.FUIntALU]++
	r.Activity.DL1Access++
}

// dispatch moves decoded instructions from the fetch queue into the RUU,
// performing renaming.
func (p *Pipeline) dispatch(r *StepResult) {
	for n := 0; n < p.cfg.DecodeWidth && p.fqLen > 0; n++ {
		fe := &p.fq[p.fqHead]
		if fe.fetchedAt >= p.step {
			return // fetched this very cycle; visible to decode next cycle
		}
		if p.count >= p.cfg.RUUSize {
			p.stats.RUUFullStalls++
			return
		}
		if fe.inst.Op.IsMem() && p.lsqCount >= p.cfg.LSQSize {
			p.stats.LSQFullStalls++
			return
		}
		idx := p.tail
		e := &p.ruu[idx]
		e.valid = true
		e.seq = fe.seq
		e.inst = fe.inst
		e.pendingSrcs = 0
		e.issued = false
		e.completed = false
		e.execLeft = 0
		e.waitingMem = false
		e.addrKnown = false
		e.mispredicted = fe.mispred
		e.dependents = e.dependents[:0]
		// Rename: link to in-flight producers.
		for _, src := range [2]isa.Reg{fe.inst.Src1, fe.inst.Src2} {
			if !src.Valid() {
				continue
			}
			if w := p.lastWriter[src]; w >= 0 && p.ruu[w].valid && !p.ruu[w].completed {
				e.pendingSrcs++
				p.ruu[w].dependents = append(p.ruu[w].dependents, idx)
			}
		}
		if e.pendingSrcs == 0 {
			p.markReady(idx)
		}
		if fe.inst.HasDst() {
			p.lastWriter[fe.inst.Dst] = idx
		}
		if fe.inst.Op.IsMem() {
			p.lsqCount++
		}
		if fe.inst.Op == isa.OpStore {
			if len(p.storeQ) == cap(p.storeQ) && p.storeQHead > 0 {
				// Reclaim the popped prefix before the append would grow the
				// backing array; live entries are bounded by the LSQ size.
				n := copy(p.storeQ, p.storeQ[p.storeQHead:])
				p.storeQ = p.storeQ[:n]
				p.storeQHead = 0
			}
			p.storeQ = append(p.storeQ, storeRef{
				block: fe.inst.Addr >> 5,
				seq:   fe.seq,
				idx:   int32(idx),
			})
		}
		if p.tail++; p.tail == len(p.ruu) {
			p.tail = 0
		}
		p.count++
		p.stats.Dispatched++
		r.Activity.Decoded++
		r.Activity.Renamed++
		if p.fqHead++; p.fqHead == len(p.fq) {
			p.fqHead = 0
		}
		p.fqLen--
	}
}

// fetch pulls instructions from the source through the IL1 and branch
// predictor into the fetch queue.
func (p *Pipeline) fetch(now int64, r *StepResult) {
	if p.waitingIFetch {
		p.stats.FetchStallIL1++
		return
	}
	if p.haveMispredict {
		p.stats.FetchStallBranch++
		return
	}
	if p.step < p.fetchResumeStep {
		p.stats.FetchStallBranch++
		return
	}
	blockMask := ^uint64(p.cfg.FetchBlockBytes - 1)
	var curBlock uint64
	first := true
	for n := 0; n < p.cfg.FetchWidth && p.fqLen < len(p.fq); n++ {
		if !p.havePending {
			p.src.Next(&p.pending)
			p.havePending = true
		}
		blk := p.pending.PC & blockMask
		if first {
			res := p.port.IFetch(blk, now)
			r.Activity.IL1Access++
			if res.Stall {
				return
			}
			if res.Async {
				p.waitingIFetch = true
				return
			}
			curBlock = blk
			first = false
		} else if blk != curBlock {
			return // next block starts next cycle
		}
		p.havePending = false
		p.nextSeq++
		slot := p.fqHead + p.fqLen
		if slot >= len(p.fq) {
			slot -= len(p.fq)
		}
		fe := &p.fq[slot]
		fe.inst = p.pending
		fe.seq = p.nextSeq
		fe.fetchedAt = p.step
		fe.mispred = false
		inst := &fe.inst
		stop := false
		if inst.Op == isa.OpBranch {
			p.stats.Branches++
			isCall := inst.CallRet == 1
			isRet := inst.CallRet == 2
			pr := p.pred.Predict(inst.PC, isCall, isRet)
			mis := p.pred.Update(inst.PC, pr, inst.Taken, inst.Target, isCall, isRet)
			if mis {
				p.stats.Mispredicts++
				fe.mispred = true
				p.haveMispredict = true
				p.mispredictSeq = fe.seq
				stop = true
			} else if inst.Taken {
				stop = true // correctly-predicted taken: redirect next cycle
			}
		}
		p.fqLen++
		p.stats.Fetched++
		r.Activity.Fetched++
		if stop {
			return
		}
	}
}
