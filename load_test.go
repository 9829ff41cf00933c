package tdb

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tdb/temporal"
)

// loadRows generates n interval rows with distinct names and staggered
// valid periods.
func loadRows(n int) []LoadRow {
	rows := make([]LoadRow, n)
	for i := range rows {
		rows[i] = LoadRow{
			Data: fac(fmt.Sprintf("p%05d", i), "r"),
			From: temporal.Chronon(1000 + i),
			To:   temporal.Chronon(2000 + i),
		}
	}
	return rows
}

// Bulk load produces exactly the state row-at-a-time ingest would, across
// multiple chunks, and the state survives recovery.
func TestLoadMatchesRowAtATime(t *testing.T) {
	t.Setenv("TDB_LOAD_CHUNK", "16")
	rows := loadRows(50) // 4 chunks, last one partial

	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	if _, err := db.CreateRelation("r", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("r")
	n, err := rel.Load(rows)
	if err != nil || n != len(rows) {
		t.Fatalf("Load = %d, %v; want %d rows", n, err, len(rows))
	}

	base, err := Open("", Options{Clock: temporal.NewLogicalClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := base.CreateRelation("r", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	brel, _ := base.Relation("r")
	for _, row := range rows {
		if err := brel.Assert(row.Data, row.From, row.To); err != nil {
			t.Fatal(err)
		}
	}

	// Versions must agree modulo transaction time (Load shares one commit
	// chronon per chunk; row-at-a-time mints one per row).
	strip := func(db *DB) []string {
		r, _ := db.Relation("r")
		var out []string
		for _, v := range r.Versions() {
			out = append(out, v.Data.String()+"@"+v.Valid.String())
		}
		return out
	}
	if got, want := strip(db), strip(base); !digestsEqual(got, want) {
		t.Fatalf("loaded versions diverge from row-at-a-time:\nwant %v\ngot  %v", want, got)
	}
	if got := db.Stats().WALRecords; got != 4+1 { // create + 4 chunk records
		t.Fatalf("WALRecords = %d, want 5 (1 create + 4 chunks)", got)
	}

	before := stateDigest(t, db)
	db.Close()
	db2 := reopen(t, path)
	defer db2.Close()
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatal("bulk-loaded state did not survive recovery")
	}
}

// A full-chunk load on an append-only relation seals straight into
// columnar segments: the tail never holds more than one chunk.
func TestLoadSealsSegmentsDirectly(t *testing.T) {
	t.Setenv("TDB_DISABLE_SEGMENTS", "") // force segments on even in the ablation CI job
	t.Setenv("TDB_SEGMENT_ROWS", "32")
	t.Setenv("TDB_LOAD_CHUNK", "32")
	db, err := Open("", Options{Clock: temporal.NewLogicalClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateRelation("r", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("r")
	if _, err := rel.Load(loadRows(4 * 32)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Segments != 4 || st.SealedRows != 128 || st.TailRows != 0 {
		t.Fatalf("segments=%d sealed=%d tail=%d, want 4 sealed segments and an empty tail",
			st.Segments, st.SealedRows, st.TailRows)
	}
}

// Load handles every relation shape: events take From as the instant,
// static kinds ignore valid time entirely.
func TestLoadKinds(t *testing.T) {
	db, err := Open("", Options{Clock: temporal.NewLogicalClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sch := facultySchema(t)
	if _, err := db.CreateEventRelation("ev", Temporal, sch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("st", StaticRollback, sch); err != nil {
		t.Fatal(err)
	}
	ev, _ := db.Relation("ev")
	if n, err := ev.Load([]LoadRow{{Data: fac("e", "x"), From: 42}}); err != nil || n != 1 {
		t.Fatalf("event load = %d, %v", n, err)
	}
	if vs := ev.Versions(); len(vs) != 1 || vs[0].Valid.From != 42 {
		t.Fatalf("event versions = %v", vs)
	}
	st, _ := db.Relation("st")
	if n, err := st.Load([]LoadRow{{Data: fac("s", "y")}}); err != nil || n != 1 {
		t.Fatalf("static load = %d, %v", n, err)
	}
	if _, ok, err := st.Get(NewTuple(String("s"))); err != nil || !ok {
		t.Fatalf("static row missing after load: %v", err)
	}
}

// A row error aborts only its own chunk; earlier chunks stay committed.
func TestLoadChunkErrorLeavesPriorChunks(t *testing.T) {
	t.Setenv("TDB_LOAD_CHUNK", "8")
	db, err := Open("", Options{Clock: temporal.NewLogicalClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateRelation("r", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("r")
	rows := loadRows(16)
	rows[12].To = rows[12].From // invalid empty interval, second chunk
	n, err := rel.Load(rows)
	if err == nil || !strings.Contains(err.Error(), "empty valid period") {
		t.Fatalf("Load error = %v, want empty-period error", err)
	}
	if n != 8 {
		t.Fatalf("loaded = %d, want the first chunk's 8 rows", n)
	}
	if got := rel.VersionCount(); got != 8 {
		t.Fatalf("VersionCount = %d, want 8", got)
	}
}

// Followers refuse bulk load like every other user mutation.
func TestLoadReadOnlyFollower(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.wal")
	db := openFollower(t, path, nil)
	defer db.Close()
	// A follower has no relations; Load must fail on readOnly, not on
	// lookup, so go through the db-level chunk path directly.
	if _, err := db.loadChunk("r", loadRows(1), func(h *TxRel, row LoadRow) error { return nil }); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("loadChunk on follower = %v, want ErrReadOnly", err)
	}
}

// Bulk-loaded history ships to a follower byte-identically: the chunked
// multi-op records replay through the same apply path as ordinary commits.
func TestReplFollowerBulkLoad(t *testing.T) {
	t.Setenv("TDB_LOAD_CHUNK", "16")
	dir := t.TempDir()
	pPath := filepath.Join(dir, "p.wal")
	fPath := filepath.Join(dir, "f.wal")
	p := reopen(t, pPath)
	defer p.Close()
	f := openFollower(t, fPath, nil)
	defer f.Close()

	if _, err := p.CreateRelation("r", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	rel, _ := p.Relation("r")
	if _, err := rel.Load(loadRows(40)); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f)
	assertReplicaIdentical(t, p, f, pPath, fPath)
}
