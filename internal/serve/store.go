package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// The disk spill of the two content-addressed caches.
//
// Both caches are keyed by canonical SHA-256 hashes, so a disk entry is as
// correct as a memory entry: identical spec, identical bytes. Entries are
// written atomically (temp file + rename) so a crash mid-write leaves either
// the old state or a decodable new file, never a torn envelope; an
// undecodable file is skipped on load and the value recomputed. Result and
// event bytes travel base64-encoded — json.RawMessage would re-compact the
// indented result document and break byte-identity, which is the one
// property the whole design rests on.

const (
	resultStoreSchema = "stencilserve-store-result/1"
	setupStoreSchema  = "stencilserve-store-setup/1"
	resultsDirName    = "results"
	setupsDirName     = "setups"
)

// resultEnvelope is the on-disk form of one result-cache entry.
type resultEnvelope struct {
	Schema      string  `json:"schema"`
	SpecHash    string  `json:"spec_hash"`
	Tenant      string  `json:"tenant,omitempty"`
	CostSeconds float64 `json:"cost_s"` // run virtual seconds (eviction weight)
	ResultB64   string  `json:"result_b64"`
	EventsB64   string  `json:"events_b64,omitempty"`
}

// setupEnvelope is the on-disk form of one setup-cache entry.
type setupEnvelope struct {
	Schema      string  `json:"schema"`
	SetupHash   string  `json:"setup_hash"`
	CostSeconds float64 `json:"cost_s"` // setup wall seconds (eviction weight)
	Assignments [][]int `json:"assignments"`
}

// store spills cache entries under <dir>/results and <dir>/setups.
type store struct {
	dir  string
	dead atomic.Bool // kill(): simulate process death, drop all writes
}

func newStore(dir string) (*store, error) {
	for _, sub := range []string{resultsDirName, setupsDirName} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: store dir: %w", err)
		}
	}
	return &store{dir: dir}, nil
}

// kill simulates process death: every subsequent write is dropped.
func (st *store) kill() { st.dead.Store(true) }

// writeAtomic writes an envelope via temp-file + rename, so readers
// (including post-crash recovery) only ever observe complete paths. Spills
// are deliberately NOT fsynced: per the durability contract only the
// journal's submitted records are durable-before-ack, while a spill is a
// recompute-avoidance optimization. A power cut can therefore leave a
// renamed-but-empty or truncated spill file; loadAll treats any undecodable
// envelope as absent (counted in SkippedFiles) and the job is simply
// recomputed from its journaled spec — deterministically byte-identical.
// Skipping the per-file fsync keeps result spilling off the commit path,
// which is what holds journaling inside its 1.5x throughput budget.
func (st *store) writeAtomic(path string, v any) error {
	if st.dead.Load() {
		return errJournalDead
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if st.dead.Load() { // killed while writing: the rename never happens
		os.Remove(tmp.Name())
		return errJournalDead
	}
	return os.Rename(tmp.Name(), path)
}

// putResult spills one result-cache entry and returns the stored-bytes
// DELTA it produced: new size minus whatever a previous spill of the same
// content-addressed hash already occupied. The delta — not the full size —
// is the per-tenant accounting unit, so an evicted-then-recomputed result
// re-spilled over its own file accrues zero, not double. (Two workers
// racing the same hash could each observe the pre-write size and overcount
// once; both then wrote identical bytes, and the next restart's disk scan
// self-corrects the accounting.)
func (st *store) putResult(hash string, e resultEntry, tenant string, cost float64) (int64, error) {
	env := resultEnvelope{
		Schema:      resultStoreSchema,
		SpecHash:    hash,
		Tenant:      tenant,
		CostSeconds: cost,
		ResultB64:   base64.StdEncoding.EncodeToString(e.result),
		EventsB64:   base64.StdEncoding.EncodeToString(e.events),
	}
	path := filepath.Join(st.dir, resultsDirName, hash+".json")
	var prev int64
	if fi, err := os.Stat(path); err == nil {
		prev = fi.Size()
	}
	if err := st.writeAtomic(path, &env); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size() - prev, nil
}

// putSetup spills one setup-cache entry.
func (st *store) putSetup(hash string, assignments [][]int, cost float64) error {
	env := setupEnvelope{
		Schema:      setupStoreSchema,
		SetupHash:   hash,
		CostSeconds: cost,
		Assignments: assignments,
	}
	return st.writeAtomic(filepath.Join(st.dir, setupsDirName, hash+".json"), &env)
}

// loadAll streams every decodable spilled entry to the callbacks (recovery's
// cache rehydration) and returns how many files were skipped as corrupt or
// foreign. Skipping is the only failure mode: a bad file costs a recompute.
func (st *store) loadAll(
	onResult func(hash string, e resultEntry, tenant string, cost float64, diskBytes int64),
	onSetup func(hash string, assignments [][]int, cost float64),
) (skipped int, err error) {
	dir := filepath.Join(st.dir, resultsDirName)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			skipped++
			continue
		}
		path := filepath.Join(dir, name)
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			skipped++
			continue
		}
		var env resultEnvelope
		if json.Unmarshal(b, &env) != nil || env.Schema != resultStoreSchema ||
			env.SpecHash != strings.TrimSuffix(name, ".json") {
			skipped++
			continue
		}
		result, rerr1 := base64.StdEncoding.DecodeString(env.ResultB64)
		events, rerr2 := base64.StdEncoding.DecodeString(env.EventsB64)
		if rerr1 != nil || rerr2 != nil || len(result) == 0 {
			skipped++
			continue
		}
		fi, serr := de.Info()
		var size int64
		if serr == nil {
			size = fi.Size()
		}
		onResult(env.SpecHash, resultEntry{result: result, events: events}, env.Tenant, env.CostSeconds, size)
	}

	dir = filepath.Join(st.dir, setupsDirName)
	ents, err = os.ReadDir(dir)
	if err != nil {
		return skipped, err
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			skipped++
			continue
		}
		b, rerr := os.ReadFile(filepath.Join(dir, name))
		if rerr != nil {
			skipped++
			continue
		}
		var env setupEnvelope
		if json.Unmarshal(b, &env) != nil || env.Schema != setupStoreSchema ||
			env.SetupHash != strings.TrimSuffix(name, ".json") || len(env.Assignments) == 0 {
			skipped++
			continue
		}
		onSetup(env.SetupHash, env.Assignments, env.CostSeconds)
	}
	return skipped, nil
}

// hasResult reports whether a result entry for hash is spilled — what lets
// compaction drop a completed job's spec from the journal. The hash comes
// from journal bytes, so anything but lowercase hex (a path escape, a
// corrupt record) reports false.
func (st *store) hasResult(hash string) bool {
	if hash == "" || len(hash) > 128 {
		return false
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	_, err := os.Stat(filepath.Join(st.dir, resultsDirName, hash+".json"))
	return err == nil
}

// getResult loads one spilled result entry (a completed journal record's
// payload during recovery). ok=false means missing or undecodable — the
// caller re-runs the job instead.
func (st *store) getResult(hash string) (resultEntry, string, float64, bool) {
	b, err := os.ReadFile(filepath.Join(st.dir, resultsDirName, hash+".json"))
	if err != nil {
		return resultEntry{}, "", 0, false
	}
	var env resultEnvelope
	if json.Unmarshal(b, &env) != nil || env.Schema != resultStoreSchema || env.SpecHash != hash {
		return resultEntry{}, "", 0, false
	}
	result, err1 := base64.StdEncoding.DecodeString(env.ResultB64)
	events, err2 := base64.StdEncoding.DecodeString(env.EventsB64)
	if err1 != nil || err2 != nil || len(result) == 0 {
		return resultEntry{}, "", 0, false
	}
	return resultEntry{result: result, events: events}, env.Tenant, env.CostSeconds, true
}
