package buildinfo

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// String returns "name version (go1.xx, rev abcdef12)" for the running
// binary. Fields the build did not stamp (for example the VCS revision in a
// non-git build, or the module version in a `go run` build) are omitted
// rather than faked.
func String(name string) string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return name + " (build info unavailable)"
	}
	return describe(name, info)
}

// describe is String on an explicit *debug.BuildInfo, split out for testing.
func describe(name string, info *debug.BuildInfo) string {
	version := info.Main.Version
	if version == "" {
		version = "(devel)"
	}
	var extras []string
	if info.GoVersion != "" {
		extras = append(extras, info.GoVersion)
	}
	if rev, dirty := vcs(info); rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if dirty {
			rev += "+dirty"
		}
		extras = append(extras, "rev "+rev)
	}
	s := fmt.Sprintf("%s %s", name, version)
	if len(extras) > 0 {
		s += " (" + strings.Join(extras, ", ") + ")"
	}
	return s
}

// Revision returns the VCS revision stamped into the running binary
// ("abcdef123456", with "+dirty" appended for modified trees), or "unknown"
// when the build carries none. Checkpoint keys embed it so persisted sweep
// results can never resurrect across code changes. The server keys every
// submission with it, so it is read from the build info once.
func Revision() string { return revision() }

var revision = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := vcs(info)
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
})

// vcs extracts the VCS revision and modified flag from the build settings.
func vcs(info *debug.BuildInfo) (rev string, dirty bool) {
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}
