package pipeline

import (
	"testing"

	"repro/internal/isa"
)

// loopSource emits a fixed loop body forever: body instructions then a
// taken branch back to the start.
type loopSource struct {
	body []isa.Inst
	i    int
}

func (s *loopSource) Next(in *isa.Inst) {
	*in = s.body[s.i]
	s.i = (s.i + 1) % len(s.body)
}

func makeLoop(bodyLen int) *loopSource {
	var body []isa.Inst
	for i := 0; i < bodyLen-1; i++ {
		body = append(body, isa.Inst{PC: uint64(i * 4), Op: isa.OpIntALU,
			Src1: 1, Src2: 2, Dst: isa.RegNone})
	}
	body = append(body, isa.Inst{PC: uint64((bodyLen - 1) * 4), Op: isa.OpBranch,
		Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone,
		Taken: true, Target: 0})
	return &loopSource{body: body}
}

func TestLoopBranchLearnedNoPenalty(t *testing.T) {
	// A tight loop with one taken branch: after BTB training, no
	// mispredicts and high throughput.
	p := build(nil, newFakePort())
	p.src = makeLoop(16)
	run(p, 500)
	s := p.Stats()
	if s.Branches < 100 {
		t.Fatalf("branches = %d", s.Branches)
	}
	misRate := float64(s.Mispredicts) / float64(s.Branches)
	if misRate > 0.05 {
		t.Fatalf("trained loop mispredict rate = %.2f", misRate)
	}
}

func TestTakenBranchLimitsFetch(t *testing.T) {
	// A 4-instruction loop (3 ALU + taken branch) caps fetch at 4 per
	// cycle even though the fetch width is 8.
	p := build(nil, newFakePort())
	p.src = makeLoop(4)
	run(p, 400)
	perCycle := float64(p.Stats().Fetched) / float64(p.Stats().Steps)
	if perCycle > 4.5 {
		t.Fatalf("fetched %.2f/cycle from a 4-instruction loop", perCycle)
	}
	if perCycle < 2.0 {
		t.Fatalf("fetch collapsed: %.2f/cycle", perCycle)
	}
}

func TestCallReturnThroughRAS(t *testing.T) {
	// call -> sub body -> return, repeatedly: the RAS must make the
	// returns predictable.
	body := []isa.Inst{
		{PC: 0x00, Op: isa.OpIntALU, Src1: 1, Src2: 2, Dst: isa.RegNone},
		{PC: 0x04, Op: isa.OpBranch, Src1: isa.RegNone, Src2: isa.RegNone,
			Dst: isa.RegNone, Taken: true, Target: 0x100, CallRet: 1},
		{PC: 0x100, Op: isa.OpIntALU, Src1: 3, Src2: 4, Dst: isa.RegNone},
		{PC: 0x104, Op: isa.OpBranch, Src1: isa.RegNone, Src2: isa.RegNone,
			Dst: isa.RegNone, Taken: true, Target: 0x08, CallRet: 2},
		{PC: 0x08, Op: isa.OpBranch, Src1: isa.RegNone, Src2: isa.RegNone,
			Dst: isa.RegNone, Taken: true, Target: 0x00},
	}
	p := build(nil, newFakePort())
	p.src = &loopSource{body: body}
	run(p, 1500)
	s := p.Stats()
	if s.Branches < 300 {
		t.Fatalf("branches = %d", s.Branches)
	}
	// After warmup the calls, returns and loop branch all predict well.
	misRate := float64(s.Mispredicts) / float64(s.Branches)
	if misRate > 0.05 {
		t.Fatalf("call/return mispredict rate = %.2f", misRate)
	}
	if s.Committed < 1000 {
		t.Fatalf("committed = %d", s.Committed)
	}
}

func TestNopsFlowThrough(t *testing.T) {
	var prog []isa.Inst
	for i := 0; i < 64; i++ {
		prog = append(prog, isa.Inst{PC: uint64(i * 4), Op: isa.OpNop,
			Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone})
	}
	p := build(prog, newFakePort())
	run(p, 50)
	if p.Stats().Committed < 64 {
		t.Fatalf("nops committed = %d", p.Stats().Committed)
	}
}

func TestIntALUSaturation(t *testing.T) {
	// Independent integer ops: bounded by min(fetch, intALU=8, commit=8).
	p := build(nil, newFakePort()) // padding source: independent ALU
	run(p, 300)
	ipc := p.Stats().IPC()
	if ipc > 8.01 {
		t.Fatalf("IPC %v exceeds machine width", ipc)
	}
}

func TestMixedFUProgramCompletes(t *testing.T) {
	var prog []isa.Inst
	ops := []isa.OpClass{isa.OpIntALU, isa.OpFPAdd, isa.OpFPMul, isa.OpIntMul,
		isa.OpLoad, isa.OpStore, isa.OpFPDiv, isa.OpIntDiv}
	for i := 0; i < 400; i++ {
		op := ops[i%len(ops)]
		in := isa.Inst{PC: uint64(i * 4), Op: op, Src1: 1, Src2: 2, Dst: isa.RegNone}
		if op.IsFP() {
			in.Src1, in.Src2 = isa.FPReg(1), isa.FPReg(2)
			in.Dst = isa.FPReg(3 + i%4)
		}
		if op == isa.OpLoad {
			in.Dst = isa.IntReg(3 + i%4)
			in.Addr = uint64(0x1000 + i*8)
		}
		if op == isa.OpStore {
			in.Addr = uint64(0x8000 + i*8)
		}
		prog = append(prog, in)
	}
	p := build(prog, newFakePort())
	for i := 0; i < 3000 && p.Stats().Committed < 400; i++ {
		p.Step(int64(i))
	}
	if p.Stats().Committed < 400 {
		t.Fatalf("mixed program stalled at %d/400", p.Stats().Committed)
	}
}

func TestWakeupCountsMatchDependencies(t *testing.T) {
	// A producer with three consumers: its completion must wake exactly
	// the consumers that were dispatched and waiting.
	prog := []isa.Inst{
		{PC: 0, Op: isa.OpIntMul, Src1: 1, Src2: 2, Dst: 5},
		alu(4, 5, 1, 6),
		alu(8, 5, 2, 7),
		alu(12, 5, 3, 8),
	}
	p := build(prog, newFakePort())
	wakeups := 0
	for i := 0; i < 40; i++ {
		r := p.Step(int64(i))
		wakeups += r.Activity.Wakeups
	}
	if wakeups < 3 {
		t.Fatalf("wakeups = %d, want >= 3", wakeups)
	}
}

func TestFetchQueueNeverExceedsCap(t *testing.T) {
	// Block dispatch by filling the RUU behind a miss; the fetch queue must
	// stay within its configured size.
	fp := newFakePort()
	fp.missAddrs[0xd000] = true
	prog := []isa.Inst{{PC: 0, Op: isa.OpLoad, Src1: isa.RegNone,
		Src2: isa.RegNone, Dst: 2, Addr: 0xd000}}
	p := build(prog, fp)
	for i := 0; i < 300; i++ {
		p.Step(int64(i))
		if p.fqLen > p.cfg.FetchQueueSize {
			t.Fatalf("fetch queue grew to %d (cap %d)", p.fqLen, p.cfg.FetchQueueSize)
		}
	}
}

func TestStatsIPCZeroSteps(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Fatal("IPC of empty stats should be 0")
	}
}

func TestDispatchDelayedOneCycle(t *testing.T) {
	// An instruction fetched in cycle N cannot commit before cycle N+2
	// (dispatch at N+1, execute/commit later): with a single ALU op the
	// earliest commit is a few cycles in.
	prog := []isa.Inst{alu(0, 1, 2, 3)}
	p := build(prog, newFakePort())
	committedAt := -1
	for i := 0; i < 20; i++ {
		p.Step(int64(i))
		if p.Stats().Committed > 0 && committedAt < 0 {
			committedAt = i
		}
	}
	if committedAt < 2 {
		t.Fatalf("instruction committed at cycle %d — front-end depth collapsed", committedAt)
	}
}
