package names

import (
	"fmt"
	"strings"
)

// Lookup returns names[i] when i is in range, and "typ(i)" otherwise.
func Lookup(typ string, names []string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", typ, i)
}

// Parse resolves s against names case-insensitively and returns its index.
// Unknown names fail with a diagnostic that lists every valid name, so a CLI
// error is self-documenting. Every enum parser in the tree shares this one
// contract (and its table-driven test shape).
func Parse(typ string, names []string, s string) (int, error) {
	for i, n := range names {
		if strings.EqualFold(s, n) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (valid: %s)", typ, s, strings.Join(names, ", "))
}

// List returns name(v) for each value, in order: the valid names of an
// enum's listing, for a flag's help text or the service's vocabulary.
func List[T any](vs []T, name func(T) string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = name(v)
	}
	return out
}
