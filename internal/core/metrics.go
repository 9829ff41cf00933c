package core

import "tdb/internal/obs"

// Per-kind operation counters, labeled with the taxonomy cell. They are
// package-level atomics registered once, so counting an operation is one
// atomic add on the store's (already serialized) path.
var (
	writesTotal = [...]*obs.Counter{
		Static:         kindCounter("writes", "static"),
		StaticRollback: kindCounter("writes", "rollback"),
		Historical:     kindCounter("writes", "historical"),
		Temporal:       kindCounter("writes", "bitemporal"),
	}
	readsTotal = [...]*obs.Counter{
		Static:         kindCounter("reads", "static"),
		StaticRollback: kindCounter("reads", "rollback"),
		Historical:     kindCounter("reads", "historical"),
		Temporal:       kindCounter("reads", "bitemporal"),
	}
	versionsExamined = obs.Default.Counter("tdb_core_versions_examined_total",
		"Stored versions store reads visited: key-index postings, key-hash matches, interval-index stabs, rows the segment scans returned, and the full walks behind static and historical scans.")
)

func kindCounter(op, kind string) *obs.Counter {
	help := "Store read operations (snapshots, slices, scans) by relation kind."
	if op == "writes" {
		help = "Store write operations (inserts, deletes, assertions, retractions) by relation kind."
	}
	return obs.Default.Counter(`tdb_core_`+op+`_total{kind="`+kind+`"}`, help)
}

// countWrite records one mutation against a store of kind k.
func countWrite(k Kind) { writesTotal[k].Inc() }

// countRead records one query operation against a store of kind k.
func countRead(k Kind) { readsTotal[k].Inc() }

// countExamined records n stored versions visited by one store read.
func countExamined(n int) { versionsExamined.Add(uint64(n)) }
