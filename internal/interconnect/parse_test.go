package interconnect

import (
	"strings"
	"testing"

	"busprefetch/internal/bus"
)

// TestParseKind mirrors the tree's shared parser contract (see
// prefetch.TestParsers): case-insensitive resolution of every registered
// name, and a rejection diagnostic listing every valid name.
func TestParseKind(t *testing.T) {
	valid := map[string]Kind{
		"bus": SingleBus, "Bus": SingleBus, "BUS": SingleBus,
		"multibus": MultiBus, "MultiBus": MultiBus,
		"directory": Directory, "DIRECTORY": Directory,
	}
	for in, want := range valid {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bogus := range []string{"", "ring", "buss", "multi bus", "crossbar"} {
		_, err := ParseKind(bogus)
		if err == nil {
			t.Errorf("ParseKind(%q) accepted", bogus)
			continue
		}
		for _, name := range kindNames {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseKind(%q) error %q does not list valid name %q", bogus, err, name)
			}
		}
		if !strings.Contains(err.Error(), "valid:") {
			t.Errorf("ParseKind(%q) error %q lacks the valid-names diagnostic", bogus, err)
		}
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("out-of-range Kind renders %q", got)
	}
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("Kinds() returned invalid kind %v", k)
		}
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("ParseKind(%v.String()) = %v, %v", k, back, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{Discipline: bus.FCFS}, true},
		{Config{Kind: MultiBus}, true},
		{Config{Kind: MultiBus, Links: 4}, true},
		{Config{Kind: Directory, Links: 8}, true},
		{Config{Kind: SingleBus, Links: 1}, true},
		{Config{Kind: numKinds}, false},            // unknown kind
		{Config{Discipline: 9}, false},             // unknown discipline
		{Config{Links: -1}, false},                 // negative links
		{Config{Kind: SingleBus, Links: 2}, false}, // single bus, many links
	} {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("Validate(%+v) = %v, want ok", tc.cfg, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Validate(%+v) accepted", tc.cfg)
		}
	}
	if _, err := New(Config{}, 64, &fakeSched{}, 2); err == nil {
		t.Error("New accepted a route shift past the address width")
	}
}

// TestConfigString pins the canonical spec forms the checkpoint keys embed:
// a change here silently invalidates (or worse, aliases) persisted cells.
func TestConfigString(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "bus"},
		{Config{Discipline: bus.FCFS}, "bus/fcfs"},
		{Config{Kind: MultiBus}, "multibus:2"},
		{Config{Kind: MultiBus, Links: 4}, "multibus:4"},
		{Config{Kind: MultiBus, Links: 4, Discipline: bus.FCFS}, "multibus:4/fcfs"},
		{Config{Kind: Directory}, "directory:np+20"},
		{Config{Kind: Directory, Links: 8}, "directory:8+20"},
	} {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}
