package busprefetch

// Documentation gates, run as part of the normal test suite and by the CI
// docs job: every internal package must carry its godoc overview in a
// dedicated doc.go, every relative link in the top-level markdown documents
// must resolve to a real file, and DESIGN.md's regeneration targets must
// exist.

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"busprefetch/internal/experiments"
)

// TestInternalPackagesHaveDocGo enforces the documentation layout: each
// internal/* package keeps its package-level godoc overview in doc.go, so
// the overview has one predictable home and code files start at the code.
func TestInternalPackagesHaveDocGo(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no internal packages found")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := e.Name()
		path := filepath.Join("internal", pkg, "doc.go")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("package internal/%s has no doc.go: %v", pkg, err)
			continue
		}
		text := string(data)
		if !strings.HasPrefix(text, "// Package "+pkg+" ") && !strings.HasPrefix(text, "// Package "+pkg+"\n") {
			t.Errorf("internal/%s/doc.go does not open with a %q godoc comment", pkg, "Package "+pkg)
		}
		if !strings.Contains(text, "\npackage "+pkg+"\n") && !strings.HasSuffix(text, "\npackage "+pkg) {
			t.Errorf("internal/%s/doc.go does not declare package %s", pkg, pkg)
		}
	}
}

// markdownLink matches [text](target) links, including image links.
var markdownLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinksResolve checks every relative link in the tracked
// documents: a renamed or deleted file must break the build, not the
// reader. Targets resolve relative to the directory of the document that
// links them, so docs/ files may link ../README.md and vice versa.
func TestMarkdownLinksResolve(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PERFORMANCE.md", "ROADMAP.md", "CHANGES.md", "docs/API.md"}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not exist", doc, m[1])
			}
		}
	}
}

// benchmarkFunc matches a benchmark's declaration.
var benchmarkFunc = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)

// TestDesignTargetsExist pins DESIGN.md §4's regeneration targets to the
// code: every Benchmark it names is declared in bench_test.go, and every
// `mkfigures -only <section>` names a report section, so a renamed or
// deleted target breaks the build, not the reader.
func TestDesignTargetsExist(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(data), "\n## 4. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 4")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	bench, err := os.ReadFile("bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range benchmarkFunc.FindAllStringSubmatch(string(bench), -1) {
		declared[m[1]] = true
	}
	named := regexp.MustCompile(`\bBenchmark\w+`).FindAllString(index, -1)
	only := regexp.MustCompile(`mkfigures -only (\w+)`).FindAllStringSubmatch(index, -1)
	if len(named) == 0 || len(only) == 0 {
		t.Fatalf("DESIGN.md §4 names %d benchmarks and %d sections; the extraction has drifted from its table", len(named), len(only))
	}
	for _, b := range named {
		if !declared[b] {
			t.Errorf("DESIGN.md §4 names %s, which bench_test.go does not declare", b)
		}
	}
	for _, m := range only {
		if !slices.Contains(experiments.SectionNames(), m[1]) {
			t.Errorf("DESIGN.md §4 names mkfigures -only %s, which is not a report section (%v)", m[1], experiments.SectionNames())
		}
	}
}

// flagRegistration matches a flag definition in a CLI main.go:
// flag.String("name", ...), fs.Bool("name", ...) or flag.Var(&v, "name", ...).
var flagRegistration = regexp.MustCompile(`(?:flag|fs)\.(?:(?:String|Bool|Int|Int64|Float64|Duration)\(|Var\([^,]+, )"([^"]+)"`)

// cliFlags extracts the set of flags a command registers, from its source.
func cliFlags(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("cmd/%s: %v (%d files)", cmd, err, len(matches))
	}
	flags := make(map[string]bool)
	for _, path := range matches {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagRegistration.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
	}
	if len(flags) == 0 {
		t.Fatalf("cmd/%s registers no flags; the extraction regexp has drifted from the code style", cmd)
	}
	return flags
}

// flagTableRow matches one row of a README flag table whose first cell is
// the backticked flag name.
var flagTableRow = regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|(.*)\\|$")

// TestReadmeFlagTablesMatchCLIs pins the README flag documentation to the
// CLIs' actual flag sets, in both directions: every flag a CLI registers
// must have a README row with its column checked, and every checked cell
// must correspond to a registered flag — so adding, removing or renaming a
// flag without updating the table breaks the build, not the reader.
func TestReadmeFlagTablesMatchCLIs(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)

	// The combined tracegen/prefetchsim/mkfigures table: columns T, P, M.
	clis := []struct {
		name   string
		column int
	}{{"tracegen", 0}, {"prefetchsim", 1}, {"mkfigures", 2}}
	documented := map[string]map[string]bool{}
	for _, c := range clis {
		documented[c.name] = map[string]bool{}
	}
	benchserverDocumented := map[string]bool{}
	for _, m := range flagTableRow.FindAllStringSubmatch(readme, -1) {
		name, cells := m[1], strings.Split(m[2], "|")
		if len(cells) >= 4 {
			// T/P/M row: flag | T | P | M | meaning.
			for _, c := range clis {
				if strings.Contains(cells[c.column], "✓") {
					documented[c.name][name] = true
				}
			}
		} else {
			// Two-cell row: the benchserver table (flag | meaning).
			benchserverDocumented[name] = true
		}
	}

	for _, c := range clis {
		actual := cliFlags(t, c.name)
		for f := range actual {
			if !documented[c.name][f] {
				t.Errorf("README flag table: %s registers -%s but its column is not checked", c.name, f)
			}
		}
		for f := range documented[c.name] {
			if !actual[f] {
				t.Errorf("README flag table: %s column checks -%s, which the CLI does not register", c.name, f)
			}
		}
	}

	actual := cliFlags(t, "benchserver")
	for f := range actual {
		if !benchserverDocumented[f] {
			t.Errorf("README benchserver table: missing registered flag -%s", f)
		}
	}
	for f := range benchserverDocumented {
		if !actual[f] {
			t.Errorf("README benchserver table documents -%s, which the CLI does not register", f)
		}
	}
}

// TestUsageLinesNameRegisteredFlags pins each command's package comment to
// its flag set: every flag on a tab-indented usage line that invokes the
// command must be one the command registers, so a documented command line
// cannot exit with "flag provided but not defined".
func TestUsageLinesNameRegisteredFlags(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("cmd/*/main.go: %v (%d files)", err, len(mains))
	}
	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		comment, _, _ := strings.Cut(string(data), "\npackage ")
		flags := cliFlags(t, cmd)
		usages := 0
		for _, line := range strings.Split(comment, "\n") {
			args, ok := strings.CutPrefix(line, "//\t"+cmd+" ")
			if !ok {
				continue
			}
			usages++
			args, _, _ = strings.Cut(args, "#")
			for _, arg := range strings.Fields(args) {
				if name, ok := strings.CutPrefix(arg, "-"); ok && !flags[name] {
					t.Errorf("%s: usage line %q passes -%s, which %s does not register", path, strings.TrimPrefix(line, "//\t"), name, cmd)
				}
			}
		}
		if usages == 0 {
			t.Errorf("%s: no usage line invokes %s; the extraction has drifted from the comment style", path, cmd)
		}
	}
}
