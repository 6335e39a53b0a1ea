// Package stats counts the rows of each relation of a shredded instance.
//
// No plan depends on these counts. The planner serves the pruned translation
// unless translation fell back, and the baseline otherwise (see
// translate.ChoosePlan); the lossless-from-XML constraint, not the data,
// decides. Row counts remain as an operator's view of an instance (xml2sql
// -stats) and as the input of the repository benchmark's collection probe.
package stats

import "xmlsql/internal/relational"

// Stats is a snapshot of one instance's per-relation row counts.
type Stats struct {
	// Relations maps each relation name to its row count.
	Relations map[string]int64 `json:"relations"`
	// TotalRows sums Relations.
	TotalRows int64 `json:"total_rows"`
}

// New returns an empty snapshot.
func New() *Stats { return &Stats{Relations: map[string]int64{}} }

// Add counts n more rows of the named relation.
func (s *Stats) Add(rel string, n int64) {
	s.Relations[rel] += n
	s.TotalRows += n
}

// CollectStore reads every table's row count from an in-memory store. It
// scans nothing: a table knows its length.
func CollectStore(store *relational.Store) *Stats {
	s := New()
	for _, name := range store.TableNames() {
		if t := store.Table(name); t != nil {
			s.Add(name, int64(t.Len()))
		}
	}
	return s
}

// Estimator is a compile-only shim: plans are chosen by rule, so there is
// nothing to estimate. It survives only because the repository benchmark
// still builds one to pass to translate.ChoosePlan, which ignores it.
type Estimator struct{}

// NewEstimator returns the shim Estimator; the snapshot is not read.
func NewEstimator(*Stats) *Estimator { return &Estimator{} }
