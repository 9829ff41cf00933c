package tquel

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/obs"
	"tdb/temporal"
)

// Two sessions replacing different attributes of one key must not lose
// either update: the match runs inside the write transaction, so the
// second replace sees the first one's version. Matching before the
// transaction (under the read lock only) let both sessions match the same
// version, and whichever committed second reasserted the other's stale
// attribute.
func TestConcurrentReplaceNoLostUpdate(t *testing.T) {
	db := newDB(t)
	setup := NewSession(db)
	if _, err := setup.Exec(`
		create static relation g (id = string, shard = string, v = int) key (id)
		append to g (id = "k", shard = "x0", v = 0)
	`); err != nil {
		t.Fatal(err)
	}
	a, b := NewSession(db), NewSession(db)
	for _, ses := range []*Session{a, b} {
		if _, err := ses.Exec(`range of g is g`); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 300
	lost := 0
	for i := 1; i <= rounds; i++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 2)
		for j, src := range []string{
			fmt.Sprintf(`replace g (v = %d) where g.id = "k"`, i),
			fmt.Sprintf(`replace g (shard = "x%d") where g.id = "k"`, i),
		} {
			ses := []*Session{a, b}[j]
			wg.Add(1)
			go func(j int, src string) {
				defer wg.Done()
				<-start
				_, errs[j] = ses.Exec(src)
			}(j, src)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := setup.Query(`range of g is g retrieve (g.shard, g.v)`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Rows[0].Data[0].Str() != fmt.Sprintf("x%d", i) || res.Rows[0].Data[1].Int() != int64(i) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d rounds lost an update", lost, rounds)
	}
}

// dmlScript exercises replace and delete over keyed relations of all four
// kinds with key-covered, partial-key and non-key where clauses. Each
// statement commits at its own chronon (dmlAt).
var dmlScript = []string{
	`create static relation sr (id = int, grp = string, v = int) key (id)`,
	`create rollback relation rr (id = int, grp = string, v = int) key (id)`,
	`create historical relation hr (id = string, part = int, v = int) key (id, part)`,
	`create temporal relation tr (id = string, shard = string, v = int) key (id)`,
	`range of s is sr range of r is rr range of h is hr range of t is tr`,
	`append to sr (id = 1, grp = "a", v = 10)`,
	`append to sr (id = 2, grp = "a", v = 20)`,
	`append to sr (id = 3, grp = "b", v = 30)`,
	`append to rr (id = 1, grp = "a", v = 10)`,
	`append to rr (id = 2, grp = "a", v = 20)`,
	`append to rr (id = 3, grp = "b", v = 30)`,
	`append to hr (id = "a", part = 1, v = 1) valid from "01/01/80" to forever`,
	`append to hr (id = "a", part = 2, v = 2) valid from "01/01/80" to forever`,
	`append to hr (id = "b", part = 1, v = 3) valid from "01/01/81" to forever`,
	`append to tr (id = "a", shard = "x", v = 1) valid from "01/01/80" to forever`,
	`append to tr (id = "b", shard = "x", v = 2) valid from "01/01/80" to forever`,
	`append to tr (id = "c", shard = "y", v = 3) valid from "01/01/81" to forever`,
	// Key-covered.
	`replace s (v = 11) where s.id = 1`,
	`replace r (v = 21) where r.id = 2 and r.v = 20`,
	`replace h (v = 9) where h.id = "a" and h.part = 2 valid from "01/01/82" to "01/01/83"`,
	`replace t (v = 5) where t.id = "a" valid from "01/01/82" to "01/01/83"`,
	`replace t (shard = "z") where t.id = "a"`, // three current versions, commit order
	`replace t (v = 8) where t.id = "a"`,       // again, after the key index reordered them
	`replace t (v = 6) where "b" = t.id when t overlap "06/01/81"`,
	`delete t where t.id = "c" valid from "01/01/83" to forever`,
	// Key change through a key-covered match.
	`replace s (id = 9) where s.id = 3`,
	`replace r (id = 9) where r.id = 3`,
	// Partial key.
	`replace h (v = 4) where h.id = "a"`,
	`delete h where h.part = 1 valid from "01/01/84" to forever`,
	// Non-key.
	`replace s (grp = "c") where s.grp = "a"`,
	`replace r (grp = "c") where r.v > 15`,
	`replace t (v = 7) where t.shard = "x" valid from "01/01/84" to forever`,
	// Key-covered deletes, one matching nothing.
	`delete s where s.id = 2`,
	`delete r where r.id = 1`,
	`delete r where r.id = 42`,
	`delete h where h.id = "b" and h.part = 1`,
	`delete t where t.id = "a" and t.v = 5`,
	// Keyed reads after the writes.
	`retrieve (t.id, t.shard, t.v) where t.id = "a"`,
	`retrieve (r.id, r.v) where r.id = 2 as of "01/01/85"`,
}

func dmlAt(i int) temporal.Chronon { return temporal.Date(1985, 1, 1) + temporal.Chronon(i)*3600 }

// runDML executes script[from:to] on db, one statement per commit chronon.
func runDML(t *testing.T, db *tdb.DB, clock *temporal.LogicalClock, noPlanner bool, from, to int) {
	t.Helper()
	ses := NewSession(db)
	ses.DisablePlanner(noPlanner)
	ses.SetNow(func() temporal.Chronon { return dmlAt(len(dmlScript)) })
	if from > 4 { // a fresh session re-declares the range variables
		if _, err := ses.Exec(dmlScript[4]); err != nil {
			t.Fatal(err)
		}
	}
	for i := from; i < to; i++ {
		clock.Set(dmlAt(i))
		if _, err := ses.Exec(dmlScript[i]); err != nil {
			t.Fatalf("planner off=%v: %v\n%s", noPlanner, err, dmlScript[i])
		}
	}
}

// dumpVersions renders every stored version of the script's relations.
func dumpVersions(t *testing.T, db *tdb.DB) string {
	t.Helper()
	var b strings.Builder
	for _, name := range []string{"sr", "rr", "hr", "tr"} {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rel.Versions() {
			fmt.Fprintf(&b, "%s %v %v %v\n", name, v.Data, v.Valid, v.Trans)
		}
	}
	return b.String()
}

// The DML differential: the script runs with the planner on (key-covered
// matches through the key path) and off (every match a full scan). Halfway
// through, the database "crashes": its log is copied as the process would
// leave it, with a torn frame appended, and the second half runs on the
// database recovered from that image. Both arms must store byte-identical
// versions and write byte-identical logs, and recovery must reproduce the
// stored versions exactly.
func TestDMLKeyPathDifferential(t *testing.T) {
	t.Setenv("TDB_SEGMENT_ROWS", "4") // seal often: key scans meet bloom filters
	half := 26
	run := func(noPlanner bool) (string, []byte) {
		dir := t.TempDir()
		clock := temporal.NewLogicalClock(0)
		db, err := tdb.Open(filepath.Join(dir, "tdb.wal"), tdb.Options{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		runDML(t, db, clock, noPlanner, 0, half)
		before := dumpVersions(t, db)
		image, err := os.ReadFile(filepath.Join(dir, "tdb.wal"))
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
		crashed := filepath.Join(dir, "crashed.wal")
		torn := []byte{0x00, 0x00, 0x40, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x7f}
		if err := os.WriteFile(crashed, append(image, torn...), 0o644); err != nil {
			t.Fatal(err)
		}
		clock = temporal.NewLogicalClock(0)
		db, err = tdb.Open(crashed, tdb.Options{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if !db.Stats().Recovery.TornTail {
			t.Fatal("recovery did not report the torn tail")
		}
		if got := dumpVersions(t, db); got != before {
			t.Fatalf("planner off=%v: recovery changed the versions\n--- before ---\n%s--- after ---\n%s", noPlanner, before, got)
		}
		runDML(t, db, clock, noPlanner, half, len(dmlScript))
		after := dumpVersions(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(crashed)
		if err != nil {
			t.Fatal(err)
		}
		return after, log
	}
	lookups := mKeyLookups.Value()
	onVers, onLog := run(false)
	if mKeyLookups.Value() == lookups {
		t.Fatal("planner-on arm never took the key path")
	}
	offVers, offLog := run(true)
	if onVers != offVers {
		t.Errorf("stored versions differ\n--- planner on ---\n%s--- planner off ---\n%s", onVers, offVers)
	}
	if string(onLog) != string(offLog) {
		t.Errorf("logs differ: %d bytes (planner on) vs %d (off)", len(onLog), len(offLog))
	}
}

// Pushdown boundaries: each query must equal the planner-off answer (the
// differential's six arms), and explain must name the path the variable's
// candidates came through.
func TestKeyPushdownBoundaries(t *testing.T) {
	t.Setenv("TDB_SEGMENT_ROWS", "4")
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation fk (x = float, tag = string) key (x)
		create static relation ik (d = instant, tag = string) key (d)
		create historical relation ck (a = string, b = int, v = int) key (a, b)
		create temporal relation gk (id = string, v = int) key (id)
		create temporal relation nk (id = string, v = int)
		range of f is fk range of i is ik range of c is ck range of g is gk range of n is nk
		append to ik (d = "01/01/80", tag = "new year")
		append to ck (a = "x", b = 1, v = 1) valid from "01/01/80" to forever
		append to ck (a = "x", b = 2, v = 2) valid from "01/01/80" to forever
		append to ck (a = "y", b = 1, v = 0) valid from "01/01/81" to forever
		append to nk (id = "a", v = 1) valid from "01/01/80" to forever
	`); err != nil {
		t.Fatal(err)
	}
	fk, err := db.Relation("fk")
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{math.Copysign(0, -1), math.NaN(), 1.5} {
		if err := fk.Insert(tdb.NewTuple(tdb.Float(x), tdb.String(fmt.Sprint("f", i)))); err != nil {
			t.Fatal(err)
		}
	}
	// gk: several versions of "a", superseded ones included, across
	// sealed segments.
	for i, src := range []string{
		`append to gk (id = "a", v = 1) valid from "01/01/80" to forever`,
		`append to gk (id = "b", v = 1) valid from "01/01/80" to forever`,
		`replace g (v = 2) where g.id = "a" valid from "01/01/82" to forever`,
		`append to gk (id = "c", v = 1) valid from "01/01/80" to forever`,
		`replace g (v = 3) where g.id = "a" valid from "01/01/83" to "01/01/84"`,
		`replace g (v = 4) where g.id = "b"`,
	} {
		execAt(t, ses, temporal.Date(1985, 6, 1+i), src)
	}
	for _, tc := range []struct{ src, path string }{
		// Float keys: -0 equals +0 but hashes apart; never pushed.
		{`retrieve (f.tag) where f.x = 0.0`, "scan"},
		{`retrieve (f.tag) where f.x = 1.5`, "scan"},
		// An instant key against a date string: coerced, stays a scan.
		{`retrieve (i.tag) where i.d = "01/01/80"`, "scan"},
		// Composite key: partial binding scans, full binding looks up.
		{`retrieve (c.v) where c.a = "x"`, "scan"},
		{`retrieve (c.v) where c.a = "x" and c.b = 2`, "key lookup"},
		{`retrieve (c.v) where c.b = 1 and "y" = c.a`, "key lookup"},
		// Under or/not the conjunct is not a top-level key binding.
		{`retrieve (c.v) where c.a = "x" and c.b = 1 or c.v = 0`, "scan"},
		{`retrieve (c.v) where not (c.a = "x" and c.b = 1)`, "scan"},
		{`retrieve (c.v) where (c.a = "x" or c.a = "y") and c.b = 1`, "scan"},
		// A kind mismatch on one attribute leaves the key unbound.
		{`retrieve (c.v) where c.a = "x" and c.b = 1.0`, "scan"},
		// Key plus when overlap: the key path wins, when runs row-wise.
		{`retrieve (g.v) where g.id = "a" when g overlap "06/01/83"`, "key lookup"},
		// Key plus as of, point and through-window.
		{`retrieve (g.v) where g.id = "a" as of "06/02/85"`, "key lookup"},
		{`retrieve (g.v) where g.id = "a" as of "06/02/85" through "06/04/85"`, "key lookup"},
		{`retrieve (g.v) where g.id = "b" and g.v = 1 as of "06/01/85" through "06/05/85"`, "key lookup"},
		{`retrieve (g.id, g.v) where g.id = "zz"`, "key lookup"},
		// No explicit key: nothing to look up.
		{`retrieve (n.v) where n.id = "a"`, "scan"},
	} {
		differential(t, ses, tc.src)
		outs, err := ses.Exec("explain " + tc.src)
		if err != nil {
			t.Fatalf("explain %s: %v", tc.src, err)
		}
		if msg := outs[0].Msg; !strings.Contains(msg, "1. ") || !strings.Contains(strings.Split(msg, "\n")[1], ", "+tc.path) {
			t.Errorf("explain of %s: want %q\n%s", tc.src, tc.path, msg)
		}
	}
	// The -0 row is found by the +0 probe, as the comparison demands.
	if res, err := ses.Query(`retrieve (f.tag) where f.x = 0.0`); err != nil || res.Len() != 1 || res.Rows[0].Data[0].Str() != "f0" {
		t.Errorf("float key -0/+0: %v\n%s", err, res)
	}
}

// A key-path answer is not cached in versioned mode (it would go dead at
// the relation's next write); a settled, transaction-closed one still is.
func TestKeyPathCacheAdmission(t *testing.T) {
	db := newDB(t)
	ses := plannerOn(NewSession(db))
	execAt(t, ses, temporal.Date(1984, 1, 1), `
		create temporal relation gk (id = string, v = int) key (id)
		range of g is gk
		append to gk (id = "a", v = 1) valid from "01/01/80" to forever`)
	execAt(t, ses, temporal.Date(1984, 2, 1), `replace g (v = 2) where g.id = "a"`)
	qc := db.QueryCache()
	if qc == nil {
		t.Skip("query cache disabled")
	}
	entries := qc.Stats().Entries
	mustQuery(t, ses, `retrieve (g.v) where g.id = "a"`)
	if got := qc.Stats().Entries; got != entries {
		t.Errorf("versioned key-path answer cached: entries %d -> %d", entries, got)
	}
	mustQuery(t, ses, `retrieve (g.v) where g.id = "a" as of "01/15/84"`)
	if got := qc.Stats().Entries; got != entries+1 {
		t.Errorf("immutable key-path answer not cached: entries %d -> %d", entries, got)
	}
}

// Key-addressed statements visit only the key's versions in the store,
// whatever the history size; tdb_core_versions_examined_total shows it.
func TestKeyLookupExaminesKeyVersions(t *testing.T) {
	db := newDB(t)
	ses := plannerOn(NewSession(db))
	execAt(t, ses, temporal.Date(1985, 6, 1), `
		create temporal relation gk (k = int, v = int) key (k)
		range of g is gk`)
	rel, err := db.Relation("gk")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	rows := make([]tdb.LoadRow, n)
	for i := range rows {
		rows[i] = tdb.LoadRow{Data: tdb.NewTuple(tdb.Int(int64(i)), tdb.Int(0)),
			From: temporal.Date(1980, 1, 1), To: temporal.Forever}
	}
	if _, err := rel.Load(rows); err != nil {
		t.Fatal(err)
	}
	examined := obs.Default.Counter("tdb_core_versions_examined_total", "")
	for _, tc := range []struct {
		src      string
		min, max uint64
	}{
		{`retrieve (g.v) where g.k = 7`, 1, 2},
		{`retrieve (g.v) where g.k = 7 as of "06/02/85"`, 1, 2},
		{`replace g (v = 1) where g.k = 7 valid from "01/01/82" to forever`, 1, 4},
		{`retrieve (g.v) where g.v = 1`, n, 2 * n},
	} {
		before := examined.Value()
		execAt(t, ses, temporal.Date(1985, 6, 3), tc.src)
		if d := examined.Value() - before; d < tc.min || d > tc.max {
			t.Errorf("%s: examined %d versions, want %d..%d", tc.src, d, tc.min, tc.max)
		}
	}
}
