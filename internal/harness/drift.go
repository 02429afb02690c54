package harness

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Bench-drift support: `make bench-save` snapshots a rogbench -json report
// to BENCH_<n>.json, and `rogbench -drift BENCH_<n>.json` reruns the same
// experiment at the same scale and compares every leaf of the two reports.
// The virtual clock is deterministic, so a leaf that moved is a fact, not a
// judgement: the comparison is exact, and any difference fails the gate
// until the snapshot is re-saved alongside the change that explains it.

// DriftTable lists every leaf on which cur differs from the snapshot base,
// one "path: base → now" line each, sorted by path; a leaf only one side
// has reads "added" or "dropped". Both reports are walked in their JSON
// form, so what is compared is exactly what -json writes, and a block an
// older snapshot predates shows up as added instead of being skipped.
func DriftTable(base, cur *Report) ([]string, error) {
	var leaves [2]map[string]string
	for i, rep := range []*Report{base, cur} {
		var tree any
		raw, err := json.Marshal(rep)
		if err == nil {
			err = json.Unmarshal(raw, &tree)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: drift: %w", err)
		}
		leaves[i] = map[string]string{}
		flatten("", tree, leaves[i])
	}
	var lines []string
	for path, b := range leaves[0] {
		if c, ok := leaves[1][path]; !ok {
			lines = append(lines, fmt.Sprintf("%s: %s → dropped", path, b))
		} else if b != c {
			lines = append(lines, fmt.Sprintf("%s: %s → %s", path, b, c))
		}
	}
	for path, c := range leaves[1] {
		if _, ok := leaves[0][path]; !ok {
			lines = append(lines, fmt.Sprintf("%s: added → %s", path, c))
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// flatten records every scalar under v as path → its exact JSON text.
// Object members extend the path with "name" (dot-joined); array elements
// with "[label]" when they are labelled objects (systems), "[i]" otherwise.
func flatten(path string, v any, out map[string]string) {
	switch v := v.(type) {
	case map[string]any:
		if path != "" {
			path += "."
		}
		for k, c := range v {
			flatten(path+k, c, out)
		}
	case []any:
		for i, c := range v {
			key := fmt.Sprint(i)
			if obj, ok := c.(map[string]any); ok {
				if label, ok := obj["label"].(string); ok {
					key = label
				}
			}
			flatten(path+"["+key+"]", c, out)
		}
	default:
		raw, _ := json.Marshal(v) // a decoded JSON scalar always re-encodes
		out[path] = string(raw)
	}
}
