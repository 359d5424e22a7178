// Package diff compares two run artifacts — trace exports, metrics
// documents, benchmark reports, fleet summaries, blame tables — into a
// differential report. JSON inputs are flattened to sorted leaf paths and
// compared structurally (numeric leaves get absolute and relative deltas,
// so percentile shifts and per-component blame shifts read directly off
// the report); everything else falls back to a bounded line diff.
//
// Identical inputs produce an Identical report whose writers emit zero
// bytes — ci.sh byte-compares diff output across identical-seed runs, so
// "no difference" must be the empty string, not a "no difference" banner.
package diff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"oversub/internal/schema"
)

// Schema tags WriteJSON reports.
const Schema = schema.DiffV1

// MaxEntries bounds a report: entries beyond the cap are dropped and
// counted in Truncated, keeping reports readable for wildly divergent
// inputs.
const MaxEntries = 256

// Entry is one difference: a path (a flattened JSON pointer for
// structured inputs, "line N" for text), what happened to it, and the
// two sides' rendered values. Numeric changes carry deltas.
type Entry struct {
	Path string `json:"path"`
	// Kind is "added" (only in B), "removed" (only in A), or "changed".
	Kind string `json:"kind"`
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
	// Delta and DeltaPct are set when both sides are numeric: B-A and
	// 100*(B-A)/|A| (DeltaPct omitted when A is zero).
	Delta    *float64 `json:"delta,omitempty"`
	DeltaPct *float64 `json:"delta_pct,omitempty"`
}

// Report is the outcome of comparing two artifacts.
type Report struct {
	SchemaTag string `json:"schema"`
	AName     string `json:"a"`
	BName     string `json:"b"`
	// Format is how the inputs were compared: "json" when both sides
	// parsed as JSON, else "text".
	Format    string  `json:"format"`
	Identical bool    `json:"identical"`
	Entries   []Entry `json:"entries,omitempty"`
	// Truncated counts entries dropped beyond MaxEntries.
	Truncated int `json:"truncated,omitempty"`
}

// Compare diffs two artifacts. Byte-equal inputs short-circuit to an
// Identical report regardless of format.
func Compare(aName string, a []byte, bName string, b []byte) *Report {
	r := &Report{SchemaTag: Schema, AName: aName, BName: bName, Format: "text"}
	if bytes.Equal(a, b) {
		r.Identical = true
		return r
	}
	var av, bv any
	if json.Unmarshal(a, &av) == nil && json.Unmarshal(b, &bv) == nil {
		r.Format = "json"
		r.addAll(diffJSON(av, bv))
		// Semantically equal JSON with cosmetic byte differences
		// (whitespace, key order) still counts as a difference: the repo's
		// writers are deterministic, so cosmetic drift is drift.
		if len(r.Entries) == 0 {
			r.addAll([]Entry{{Path: "(document)", Kind: "changed",
				A: "formatting", B: "formatting (semantically equal, bytes differ)"}})
		}
		return r
	}
	r.addAll(diffLines(a, b))
	return r
}

// Files reads and compares two artifact files.
func Files(aPath, bPath string) (*Report, error) {
	a, err := os.ReadFile(aPath)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(bPath)
	if err != nil {
		return nil, err
	}
	return Compare(aPath, a, bPath, b), nil
}

func (r *Report) addAll(entries []Entry) {
	for _, e := range entries {
		if len(r.Entries) >= MaxEntries {
			r.Truncated++
			continue
		}
		r.Entries = append(r.Entries, e)
	}
}

// flatten walks a decoded JSON value into path→leaf, with object keys
// joined by "." and array elements indexed "[i]".
func flatten(prefix string, v any, out map[string]any) {
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 {
			out[prefix] = x
			return
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, x[k], out)
		}
	case []any:
		if len(x) == 0 {
			out[prefix] = x
			return
		}
		for i, e := range x {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), e, out)
		}
	default:
		out[prefix] = v
	}
}

// renderLeaf prints a leaf deterministically. Numbers use strconv's
// shortest representation, matching encoding/json.
func renderLeaf(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return strconv.Quote(x)
	case map[string]any:
		return "{}"
	case []any:
		return "[]"
	}
	return fmt.Sprintf("%v", v)
}

func diffJSON(a, b any) []Entry {
	fa := map[string]any{}
	fb := map[string]any{}
	flatten("", a, fa)
	flatten("", b, fb)
	paths := make([]string, 0, len(fa)+len(fb))
	for p := range fa {
		paths = append(paths, p)
	}
	for p := range fb {
		if _, ok := fa[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var out []Entry
	for _, p := range paths {
		av, aok := fa[p]
		bv, bok := fb[p]
		switch {
		case aok && !bok:
			out = append(out, Entry{Path: p, Kind: "removed", A: renderLeaf(av)})
		case !aok && bok:
			out = append(out, Entry{Path: p, Kind: "added", B: renderLeaf(bv)})
		case !leafEqual(av, bv):
			e := Entry{Path: p, Kind: "changed", A: renderLeaf(av), B: renderLeaf(bv)}
			if an, aIsNum := av.(float64); aIsNum {
				if bn, bIsNum := bv.(float64); bIsNum {
					d := bn - an
					e.Delta = &d
					if an != 0 {
						pct := 100 * d / math.Abs(an)
						e.DeltaPct = &pct
					}
				}
			}
			out = append(out, e)
		}
	}
	return out
}

func leafEqual(a, b any) bool {
	// Leaves are scalars or empty containers; empty containers only equal
	// an empty container of the same kind.
	switch a.(type) {
	case map[string]any:
		_, ok := b.(map[string]any)
		return ok
	case []any:
		_, ok := b.([]any)
		return ok
	}
	switch b.(type) {
	case map[string]any, []any:
		return false
	}
	return a == b
}

// diffLines is a positional line diff: lines that differ at the same
// index become "changed" entries, and tail lines present on only one
// side become "removed"/"added". The repo's text artifacts are
// deterministic tables, so positional comparison pinpoints drift without
// an LCS pass.
func diffLines(a, b []byte) []Entry {
	al := splitLines(a)
	bl := splitLines(b)
	n := len(al)
	if len(bl) > n {
		n = len(bl)
	}
	var out []Entry
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("line %d", i+1)
		switch {
		case i >= len(bl):
			out = append(out, Entry{Path: path, Kind: "removed", A: al[i]})
		case i >= len(al):
			out = append(out, Entry{Path: path, Kind: "added", B: bl[i]})
		case al[i] != bl[i]:
			out = append(out, Entry{Path: path, Kind: "changed", A: al[i], B: bl[i]})
		}
	}
	return out
}

func splitLines(b []byte) []string {
	s := strings.TrimSuffix(string(b), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// WriteText renders the report as an aligned table. Identical reports
// write zero bytes.
func (r *Report) WriteText(w io.Writer) error {
	if r.Identical {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "diff %s %s (%s): %d differences",
		r.AName, r.BName, r.Format, len(r.Entries)+r.Truncated)
	if r.Truncated > 0 {
		fmt.Fprintf(&b, " (%d beyond the first %d omitted)", r.Truncated, MaxEntries)
	}
	b.WriteString("\n")
	for _, e := range r.Entries {
		switch e.Kind {
		case "removed":
			fmt.Fprintf(&b, "  - %-40s %s\n", e.Path, e.A)
		case "added":
			fmt.Fprintf(&b, "  + %-40s %s\n", e.Path, e.B)
		default:
			fmt.Fprintf(&b, "  ~ %-40s %s -> %s", e.Path, e.A, e.B)
			if e.Delta != nil {
				fmt.Fprintf(&b, "  (%+g", *e.Delta)
				if e.DeltaPct != nil {
					fmt.Fprintf(&b, ", %+.2f%%", *e.DeltaPct)
				}
				b.WriteString(")")
			}
			b.WriteString("\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the schema'd report document. Identical reports
// write zero bytes, keeping "no difference" byte-empty in every format.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.Identical {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Write renders in the named format: "text" or "json".
func (r *Report) Write(w io.Writer, format string) error {
	switch format {
	case "text":
		return r.WriteText(w)
	case "json":
		return r.WriteJSON(w)
	}
	return fmt.Errorf("diff: unknown format %q (want text or json)", format)
}

// Validate checks that data is a diff report with the schema tag this
// package understands.
func Validate(data []byte) error {
	var probe struct {
		SchemaTag string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("diff: not a JSON report: %w", err)
	}
	if probe.SchemaTag != Schema {
		return fmt.Errorf("diff: schema %q, want %q", probe.SchemaTag, Schema)
	}
	return nil
}
