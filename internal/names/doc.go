// Package names holds the one table-driven enum-name lookup every package's
// String methods share. Each enum keeps a names table next to its constants;
// Lookup renders in-range values from the table and out-of-range values as
// "Type(n)", so adding an enum value is a one-line table edit instead of a
// new switch arm — the copy-pasted switch pattern is where stale names hide.
// List renders an enum's whole listing the same way for the CLIs' flag help
// and the service's vocabulary.
package names
