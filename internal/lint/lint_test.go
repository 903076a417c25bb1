package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-diagnostic harness: fixture packages under testdata/src
// annotate each construct with the diagnostic the analyzer must produce,
// as a comment containing
//
//	want `regex`        — a diagnostic on this line matching regex
//	want+N `regex`      — a diagnostic N lines below this comment
//
// Every diagnostic must be wanted and every want must be hit, so the
// fixtures pin both that analyzers fire and that they stay silent on the
// sanctioned idioms sitting alongside.

// repoRoot locates the module root the fixtures are loaded against.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	return root
}

var wantRe = regexp.MustCompile("want(\\+[0-9]+)? `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWant extracts the want expectations from a program's comments.
func collectWant(t *testing.T, prog *Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := prog.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						offset := 0
						if m[1] != "" {
							n, err := strconv.Atoi(strings.TrimPrefix(m[1], "+"))
							if err != nil {
								t.Fatalf("%s: bad want offset %q", pos, m[1])
							}
							offset = n
						}
						re, err := regexp.Compile(m[2])
						if err != nil {
							t.Fatalf("%s: bad want regex %q: %v", pos, m[2], err)
						}
						wants = append(wants, &expectation{
							file: pos.Filename, line: pos.Line + offset, re: re,
						})
					}
				}
			}
		}
	}
	return wants
}

// runFixture loads one fixture package, runs the given analyzers, and
// matches the result against the fixture's want annotations.
func runFixture(t *testing.T, dir string, analyzers []Analyzer) *Result {
	t.Helper()
	root := repoRoot(t)
	prog, err := Load(root, "internal/lint/testdata/src/"+dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	res := Run(prog, analyzers)
	wants := collectWant(t, prog)
	for _, d := range res.Diagnostics {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", filepath.Base(w.file), w.line, w.re)
		}
	}
	return res
}

func TestDeterminismFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "determinism", []Analyzer{determinism{}})
}

func TestHotpathFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "hotpath", []Analyzer{hotpath{}})
}

func TestPanicDisciplineFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "panics", []Analyzer{panicdiscipline{}})
}

func TestFloatOrderFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "floatorder", []Analyzer{floatorder{}})
}

func TestEventHorizonFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "eventhorizon", []Analyzer{eventhorizon{}})
}

func TestPragmaFixture(t *testing.T) {
	t.Parallel()
	res := runFixture(t, "pragmas", []Analyzer{determinism{}})
	if got := len(res.Suppressed); got != 2 {
		t.Errorf("suppressed = %d, want 2 (line-above and same-line forms)", got)
	}
	for _, s := range res.Suppressed {
		if s.Pragma.Reason == "" {
			t.Errorf("suppression at %s has no written reason", s.Pragma.Pos)
		}
		if s.Pragma.Analyzer != s.Diagnostic.Analyzer {
			t.Errorf("suppression at %s matched analyzer %s with pragma for %s",
				s.Pragma.Pos, s.Diagnostic.Analyzer, s.Pragma.Analyzer)
		}
	}
}

func TestAtomicDisciplineFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "atomicdiscipline", []Analyzer{atomicdiscipline{}})
}

func TestLockOrderFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "lockorder", []Analyzer{lockorder{}})
}

func TestDurabilityFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "durability", []Analyzer{durability{}})
}

func TestFailpointCoverageFixture(t *testing.T) {
	t.Parallel()
	runFixture(t, "failpointcoverage", []Analyzer{failpointcoverage{}})
}

func TestAnalyzerSuite(t *testing.T) {
	t.Parallel()
	as := Analyzers()
	want := []string{
		"determinism", "hotpath", "panicdiscipline", "floatorder",
		"eventhorizon", "atomicdiscipline", "lockorder", "durability",
		"failpointcoverage",
	}
	if len(as) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(as), len(want))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name() == "" || a.Doc() == "" {
			t.Errorf("analyzer %T lacks a name or doc", a)
		}
		if seen[a.Name()] {
			t.Errorf("duplicate analyzer name %q", a.Name())
		}
		seen[a.Name()] = true
		if a.Name() == PragmaAnalyzer {
			t.Errorf("analyzer name %q collides with the pragma pseudo-analyzer", a.Name())
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
}

// TestRegistry pins that the registry is the single source of truth: every
// registration carries a Since tag, and the rendered markdown table names
// every analyzer (it is what README.md embeds and `vsvlint -doc` prints).
func TestRegistry(t *testing.T) {
	t.Parallel()
	regs := Registry()
	if len(regs) != len(Analyzers()) {
		t.Fatalf("registry has %d rows, Analyzers() has %d", len(regs), len(Analyzers()))
	}
	table := MarkdownTable()
	for _, r := range regs {
		if r.Since == "" {
			t.Errorf("registration %q has no Since tag", r.Analyzer.Name())
		}
		if !strings.Contains(table, "`"+r.Analyzer.Name()+"`") {
			t.Errorf("markdown table is missing analyzer %q", r.Analyzer.Name())
		}
	}
}

// TestReadmeTableInSync keeps the README's analyzer table literally equal
// to the registry rendering, so docs cannot drift from the suite.
func TestReadmeTableInSync(t *testing.T) {
	t.Parallel()
	readme, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), MarkdownTable()) {
		t.Errorf("README.md does not embed the registry's analyzer table; regenerate it with `go run ./cmd/vsvlint -doc`")
	}
}

// TestRepoClean is the live gate: the repository itself must lint clean,
// every suppression must carry a reason, and the hot-path marker sweep
// must still seed the call-graph closure. It type-checks the whole module
// (including the stdlib from source), so it is skipped under -short.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	root := repoRoot(t)
	prog, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	res := Run(prog, Analyzers())
	for _, d := range res.Diagnostics {
		t.Errorf("repository is not lint-clean: %s", d)
	}
	for _, s := range res.Suppressed {
		if s.Pragma.Reason == "" {
			t.Errorf("suppression at %s has no written reason", s.Pragma.Pos)
		}
	}
	seeds := HotpathSeeds(prog)
	if len(seeds) < 15 {
		t.Errorf("hot-path marker sweep has %d seeds, want >= 15: %v", len(seeds), seeds)
	}
	hotLocks := HotLocks(prog)
	if len(hotLocks) < 3 {
		t.Errorf("hot-lock marker sweep has %d locks, want >= 3: %v", len(hotLocks), hotLocks)
	}
	for _, needle := range []string{
		"Engine.mu",
		"Server.mu",
		"job.mu",
	} {
		found := false
		for _, l := range hotLocks {
			if strings.HasSuffix(l, needle) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected a //vsv:hotlock marker matching %q; locks: %v", needle, hotLocks)
		}
	}
	for _, needle := range []string{
		"Machine).tick",
		"Machine).fastForward",
		"Machine).Reset",
		"Memory).Tick",
		"Bus).Tick",
		"TimeKeeping).Tick",
		"Pipeline).Step",
		"Job).runOnce",
	} {
		found := false
		for _, s := range seeds {
			if strings.Contains(s, needle) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected a //vsv:hotpath seed matching %q; seeds: %v", needle, seeds)
		}
	}
}
