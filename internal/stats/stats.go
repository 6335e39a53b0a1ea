// Package stats collects table statistics over shredded relational
// instances and estimates the cardinality and cost of translated SQL.
//
// The paper's pruned translations win big on average, but every plan knob
// in this repo used to be global: the factoring rewrite was on or off for
// every query, and the pruned translation was always preferred over the baseline
// even on the handful of queries where pruning removes only a one-row join
// and the measured "win" is noise. This package supplies the missing
// ingredient for choosing per query: per-relation row counts, per-column
// distinct counts, small-domain value histograms (the
// parentcode/kindcode selectivity the translators filter on), and
// parent→child join fan-out — plus an estimator that walks a sqlast tree
// and predicts output rows and intermediate-join sizes per branch.
//
// Collection is a single scan per relation (CollectStore for the in-memory
// store, CollectRows for any row source, e.g. a Backend's SELECT * probe).
// A Tracker keeps a store's statistics current from each committed batch's
// change list instead of rescanning. Every TableStats carries a content
// fingerprint; an adaptive plan decision records the fingerprints of the
// relations it read and is re-made when one of them moves.
package stats

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"xmlsql/internal/relational"
)

// HistogramCap bounds the number of distinct values a column may have for a
// full value->count histogram to be kept. The columns that matter for
// selectivity estimation — parentcode, kindcode, tag — have tiny domains
// (one value per schema edge); wide domains (ids, text values) keep only
// the distinct count.
const HistogramCap = 64

// ColumnStats summarizes one column of one relation.
type ColumnStats struct {
	Name string `json:"name"`
	// Distinct is the exact number of distinct non-NULL values.
	Distinct int64 `json:"distinct"`
	// Nulls is the number of NULL entries.
	Nulls int64 `json:"nulls,omitempty"`
	// Histogram maps Value.Key() to its exact occurrence count, kept only
	// while the column stays within HistogramCap distinct values. For the
	// edge-condition columns the translators filter on (parentcode,
	// kindcode, tag) this makes equality selectivity exact.
	Histogram map[string]int64 `json:"histogram,omitempty"`
}

// TableStats summarizes one relation.
type TableStats struct {
	Relation string `json:"relation"`
	Rows     int64  `json:"rows"`
	// Columns is keyed by column name.
	Columns map[string]*ColumnStats `json:"columns"`

	fp uint64 // content fingerprint, see Fingerprint
}

// Stats is a full statistics snapshot of one relational instance.
type Stats struct {
	// Relations is keyed by relation name.
	Relations map[string]*TableStats `json:"relations"`
	// Version is the store's mutation version at collection time (see
	// relational.Store.Version); a differing live version means the
	// snapshot is stale.
	Version uint64 `json:"version"`
	// TotalRows sums Rows across relations.
	TotalRows int64 `json:"total_rows"`

	fpOnce sync.Once
	fp     string
}

// Table returns the named relation's statistics, or nil.
func (s *Stats) Table(name string) *TableStats {
	if s == nil {
		return nil
	}
	return s.Relations[name]
}

// Column returns the named column's statistics, or nil.
func (t *TableStats) Column(name string) *ColumnStats {
	if t == nil {
		return nil
	}
	return t.Columns[name]
}

// DistinctOr returns the column's distinct count, or def when unknown or
// zero (def keeps downstream selectivity math away from divisions by zero).
func (t *TableStats) DistinctOr(col string, def int64) int64 {
	if c := t.Column(col); c != nil && c.Distinct > 0 {
		return c.Distinct
	}
	return def
}

// FanOut estimates the average number of rows per distinct non-NULL value
// of the column — for a "parentid" column this is exactly the parent→child
// join fan-out the estimator multiplies through join chains.
func (t *TableStats) FanOut(col string) float64 {
	if t == nil || t.Rows == 0 {
		return 1
	}
	c := t.Column(col)
	if c == nil || c.Distinct == 0 {
		return 1
	}
	return float64(t.Rows-c.Nulls) / float64(c.Distinct)
}

// EqFraction estimates the fraction of the relation's rows whose column
// equals the value: exact from the histogram when present, else the uniform
// 1/distinct assumption.
func (t *TableStats) EqFraction(col string, v relational.Value) float64 {
	if t == nil || t.Rows == 0 {
		return 0
	}
	c := t.Column(col)
	if c == nil {
		return defaultEqSelectivity
	}
	if c.Histogram != nil {
		return float64(c.Histogram[v.Key()]) / float64(t.Rows)
	}
	if c.Distinct > 0 {
		return 1 / float64(c.Distinct)
	}
	return defaultEqSelectivity
}

// NullFraction estimates the fraction of rows whose column is NULL.
func (t *TableStats) NullFraction(col string) float64 {
	if t == nil || t.Rows == 0 {
		return 0
	}
	if c := t.Column(col); c != nil {
		return float64(c.Nulls) / float64(t.Rows)
	}
	return 0
}

// defaultEqSelectivity is the classic System-R fallback for equality
// predicates on columns without statistics.
const defaultEqSelectivity = 0.1

// Fingerprint returns the relation's content fingerprint: a hash of its row
// count and every column's distinct count, null count and histogram, computed
// once when the statistics were built (CollectRows, Tracker, MergeShards). Two
// TableStats over the same data fingerprint identically wherever they were
// built; an absent relation (nil) fingerprints as 0. Adaptive plan decisions
// record the fingerprints of the relations they read and stay valid exactly
// while those are unchanged.
func (t *TableStats) Fingerprint() uint64 {
	if t == nil {
		return 0
	}
	return t.fp
}

// seal computes the content fingerprint. Per-column and per-bucket hashes are
// summed, so map iteration order does not matter and nothing is sorted.
func (t *TableStats) seal() {
	var cols uint64
	for name, c := range t.Columns {
		var buckets uint64
		for k, n := range c.Histogram {
			buckets += mix(hashString(k), uint64(n))
		}
		cols += mix(mix(mix(hashString(name), uint64(c.Distinct)), uint64(c.Nulls)), buckets)
	}
	t.fp = mix(mix(hashString(t.Relation), uint64(t.Rows)), cols) | 1 // 0 means absent
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// mix folds v into h with a multiply-xorshift round (order-sensitive).
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0xff51afd7ed558ccd
	return h ^ h>>33
}

// Fingerprint returns a stable content hash of the snapshot: the mutation
// version and every relation's content fingerprint. Two snapshots of the same
// data at the same version fingerprint identically; any mutation changes it.
// It identifies a snapshot in dumps and explanations and is computed at most
// once, safely under concurrent callers.
func (s *Stats) Fingerprint() string {
	if s == nil {
		return "stats:none"
	}
	s.fpOnce.Do(func() {
		s.fp = "stats:" + strconv.FormatUint(mix(s.Version, s.relationsHash(nil)), 36)
	})
	return s.fp
}

// FingerprintFor hashes only the named relations' content fingerprints,
// without the store-wide Version: it moves exactly when one of those
// relations' statistics do. Order-insensitive; unknown relations hash as
// absent.
func (s *Stats) FingerprintFor(rels []string) string {
	if s == nil {
		return "stats:none"
	}
	return "stats/rel:" + strconv.FormatUint(s.relationsHash(rels), 36)
}

// relationsHash sums the (name, fingerprint) hashes of the named relations,
// or of every relation when rels is nil.
func (s *Stats) relationsHash(rels []string) uint64 {
	var sum uint64
	if rels == nil {
		for name, t := range s.Relations {
			sum += mix(hashString(name), t.fp)
		}
		return sum
	}
	for _, name := range rels {
		sum += mix(hashString(name), s.Relations[name].Fingerprint())
	}
	return sum
}

// MarshalJSON includes the fingerprint alongside the snapshot so dumps
// (xml2sql -stats) identify exactly which statistics a plan was chosen
// under.
func (s *Stats) MarshalJSON() ([]byte, error) {
	type alias Stats // shed methods to avoid recursion
	return json.Marshal(struct {
		Fingerprint string `json:"fingerprint"`
		*alias
	}{Fingerprint: s.Fingerprint(), alias: (*alias)(s)})
}

// String renders a compact human-readable summary (for -explain output).
func (s *Stats) String() string {
	if s == nil {
		return "no statistics"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "statistics %s: %d relations, %d rows", s.Fingerprint(), len(s.Relations), s.TotalRows)
	return b.String()
}
