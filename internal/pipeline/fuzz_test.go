package pipeline

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/rng"
)

// randomProgram builds an arbitrary but well-formed instruction sequence:
// every register reference valid, memory ops carrying addresses, branches
// carrying outcomes.
func randomProgram(r *rng.Source, n int) []isa.Inst {
	ops := []isa.OpClass{
		isa.OpIntALU, isa.OpIntALU, isa.OpIntALU, isa.OpIntMul, isa.OpIntDiv,
		isa.OpFPAdd, isa.OpFPMul, isa.OpFPDiv, isa.OpLoad, isa.OpLoad,
		isa.OpStore, isa.OpBranch, isa.OpPrefetch, isa.OpNop,
	}
	prog := make([]isa.Inst, n)
	pc := uint64(0x1000)
	for i := range prog {
		op := ops[r.Intn(len(ops))]
		in := isa.Inst{PC: pc, Op: op, Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}
		switch {
		case op == isa.OpNop:
		case op == isa.OpBranch:
			in.Src1 = isa.IntReg(r.Intn(32))
			in.Taken = r.Bool(0.5)
			in.Target = pc + uint64(r.Intn(64))*4
			switch r.Intn(8) {
			case 0:
				in.CallRet = 1
			case 1:
				in.CallRet = 2
			}
		case op == isa.OpLoad || op == isa.OpPrefetch:
			in.Src1 = isa.IntReg(r.Intn(32))
			if op == isa.OpLoad {
				in.Dst = isa.IntReg(r.Intn(32))
			}
			in.Addr = uint64(r.Intn(1 << 20))
		case op == isa.OpStore:
			in.Src1 = isa.IntReg(r.Intn(32))
			in.Src2 = isa.IntReg(r.Intn(32))
			in.Addr = uint64(r.Intn(1 << 20))
		case op.IsFP():
			in.Src1 = isa.FPReg(r.Intn(32))
			in.Src2 = isa.FPReg(r.Intn(32))
			in.Dst = isa.FPReg(r.Intn(32))
		default:
			in.Src1 = isa.IntReg(r.Intn(32))
			in.Src2 = isa.IntReg(r.Intn(32))
			in.Dst = isa.IntReg(r.Intn(32))
		}
		prog[i] = in
		pc += 4
	}
	return prog
}

// fuzzPort answers with a mix of hits, misses and stalls, completing async
// loads after a bounded delay.
type fuzzPort struct {
	r       *rng.Source
	pending []uint64 // tokens awaiting LoadDone
	p       *Pipeline
}

func (f *fuzzPort) IFetch(block uint64, now int64) IFetchResult {
	return IFetchResult{HitCycles: 2}
}

func (f *fuzzPort) Load(addr uint64, token uint64, isPrefetch bool, now int64) LoadResult {
	if isPrefetch {
		return LoadResult{HitCycles: 1}
	}
	switch f.r.Intn(10) {
	case 0:
		return LoadResult{Stall: true}
	case 1, 2:
		f.pending = append(f.pending, token)
		return LoadResult{Async: true}
	default:
		return LoadResult{HitCycles: 2}
	}
}

func (f *fuzzPort) StoreCommit(addr uint64, now int64) bool {
	return !f.r.Bool(0.1)
}

// drain randomly completes outstanding loads.
func (f *fuzzPort) drain() {
	if len(f.pending) == 0 || !f.r.Bool(0.3) {
		return
	}
	tok := f.pending[0]
	f.pending = f.pending[:copy(f.pending, f.pending[1:])]
	f.p.LoadDone(tok)
}

// TestPropertyPipelineSurvivesRandomPrograms runs arbitrary programs
// through the pipeline against an adversarial memory port and checks the
// global invariants: bounded occupancies, monotonic counters, forward
// progress, and full retirement.
func TestPropertyPipelineSurvivesRandomPrograms(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const progLen = 300
		prog := randomProgram(r.Split(), progLen)
		fp := &fuzzPort{r: r.Split()}
		p := New(DefaultConfig(), &progSource{prog: prog},
			branch.New(branch.DefaultConfig()), fp)
		fp.p = p
		var lastCommitted uint64
		for i := 0; i < 20000 && p.Stats().Committed < progLen; i++ {
			p.Step(int64(i))
			fp.drain()
			s := p.Stats()
			if p.RUUOccupancy() > DefaultConfig().RUUSize ||
				p.LSQOccupancy() > DefaultConfig().LSQSize ||
				p.RUUOccupancy() < 0 || p.LSQOccupancy() < 0 {
				t.Logf("seed %#x: occupancy out of bounds at step %d", seed, i)
				return false
			}
			if s.Committed < lastCommitted {
				t.Logf("seed %#x: commit count regressed", seed)
				return false
			}
			lastCommitted = s.Committed
			if s.Committed > s.Dispatched || s.Dispatched > s.Fetched {
				t.Logf("seed %#x: counter ordering broken (%d/%d/%d)",
					seed, s.Fetched, s.Dispatched, s.Committed)
				return false
			}
		}
		if p.Stats().Committed < progLen {
			t.Logf("seed %#x: stalled at %d/%d committed", seed, p.Stats().Committed, progLen)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkWindowIndexes compares the pipeline's incremental issue and
// writeback structures with a full walk of the RUU: the ready set must
// hold exactly the valid, unissued entries with no pending sources, and
// every issued, uncompleted entry must be in exactly one of execList,
// filled, or waiting on memory.
func checkWindowIndexes(p *Pipeline) error {
	inExec := make([]int, len(p.ruu))
	inFilled := make([]int, len(p.ruu))
	for _, idx := range p.execList {
		inExec[idx]++
	}
	for _, idx := range p.filled {
		inFilled[idx]++
	}
	nReady := 0
	for i := range p.ruu {
		e := &p.ruu[i]
		inWindow := (i-p.head+len(p.ruu))%len(p.ruu) < p.count
		if e.valid != inWindow {
			return fmt.Errorf("slot %d: valid=%v but in window=%v", i, e.valid, inWindow)
		}
		bit := p.ready[i>>6]>>uint(i&63)&1 == 1
		if bit {
			nReady++
		}
		if want := e.valid && !e.issued && e.pendingSrcs == 0; bit != want {
			return fmt.Errorf("slot %d: ready bit %v, window scan says %v", i, bit, want)
		}
		lists := inExec[i] + inFilled[i]
		if !e.valid || !e.issued || e.completed {
			if lists != 0 || e.waitingMem {
				return fmt.Errorf("slot %d: not executing but listed %d times (waitingMem=%v)", i, lists, e.waitingMem)
			}
			continue
		}
		if e.waitingMem {
			lists++
		}
		if lists != 1 {
			return fmt.Errorf("slot %d: issued and uncompleted but in execList %d, filled %d, waitingMem %v",
				i, inExec[i], inFilled[i], e.waitingMem)
		}
	}
	if nReady != p.nReady {
		return fmt.Errorf("ready set has %d bits, nReady says %d", nReady, p.nReady)
	}
	return nil
}

// quiescedByWalk is the quiescence predicate computed by walking the whole
// window instead of consulting the ready set and the execution lists.
func quiescedByWalk(p *Pipeline) bool {
	for k := 0; k < p.count; k++ {
		e := &p.ruu[(p.head+k)%len(p.ruu)]
		switch {
		case k == 0 && e.completed:
			return false // the head would commit
		case e.issued && !e.completed && !e.waitingMem:
			return false // counting down, or its fill arrived
		case !e.issued && e.pendingSrcs == 0:
			return false // would attempt issue
		}
	}
	if p.fqLen > 0 {
		fe := &p.fq[p.fqHead]
		if fe.fetchedAt >= p.step {
			return false
		}
		if p.count < p.cfg.RUUSize && !(fe.inst.Op.IsMem() && p.lsqCount >= p.cfg.LSQSize) {
			return false
		}
	}
	if p.waitingIFetch || p.haveMispredict {
		return true
	}
	return p.step >= p.fetchResumeStep && p.fqLen == len(p.fq)
}

// TestPropertyWindowIndexesMatchScan drives random programs against the
// adversarial port and, after every Step and every fill delivery, holds the
// ready set, the execution lists and Quiesced equal to full window scans.
// Odd seeds deliver fills only every 50th step, long enough for the window
// to fill behind a miss and quiesce.
func TestPropertyWindowIndexesMatchScan(t *testing.T) {
	quiesced := 0
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const progLen = 300
		prog := randomProgram(r.Split(), progLen)
		fp := &fuzzPort{r: r.Split()}
		p := New(DefaultConfig(), &progSource{prog: prog},
			branch.New(branch.DefaultConfig()), fp)
		fp.p = p
		fillEvery := 1
		if seed&1 == 1 {
			fillEvery = 50
		}
		check := func(i int, when string) bool {
			if err := checkWindowIndexes(p); err != nil {
				t.Logf("seed %#x, step %d, %s: %v", seed, i, when, err)
				return false
			}
			got, want := p.Quiesced(), quiescedByWalk(p)
			if got != want {
				t.Logf("seed %#x, step %d, %s: Quiesced() = %v, window walk says %v", seed, i, when, got, want)
				return false
			}
			if got {
				quiesced++
			}
			return true
		}
		for i := 0; i < 20000 && p.Stats().Committed < progLen; i++ {
			p.Step(int64(i))
			if !check(i, "after Step") {
				return false
			}
			if i%fillEvery != 0 {
				continue
			}
			fp.drain()
			if !check(i, "after LoadDone") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if quiesced == 0 {
		t.Fatal("the pipeline never quiesced; the Quiesced comparison is vacuous")
	}
	t.Logf("quiesced at %d checks", quiesced)
}
