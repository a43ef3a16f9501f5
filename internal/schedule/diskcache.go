package schedule

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/sim"
)

// DefaultCacheDir is the conventional on-disk cache location that
// cmd/paperfig offers via -cache-dir.
const DefaultCacheDir = ".simcache"

// segEntry is one cached result, stored as a single JSON line in a segment
// file. Schema and Key are stored redundantly (the directory already
// encodes the schema) so a line copied between segments by hand still
// self-identifies, and Names/budgets make the files meaningful to humans
// and artifact tooling.
type segEntry struct {
	Schema  string     `json:"schema"`
	Key     string     `json:"key"`
	Segment string     `json:"segment"`
	Names   []string   `json:"names"`
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`
	Result  sim.Result `json:"result"`
}

// diskCache is the optional second tier of the result store: one
// append-only segment file per study (Job.Segment) instead of one JSON
// file per job, so a 128-core -fig 8 grid leaves a handful of segments
// behind, not thousands of inodes.
//
// All entries are loaded into an in-memory index when the cache is opened;
// reads are index lookups, writes are single O_APPEND line writes (atomic
// for our line sizes on POSIX), so concurrent writers — even from separate
// processes sharing a cache dir — interleave whole lines. A torn or
// corrupt trailing line (crash mid-append) is skipped and counted at the
// next open, never served.
type diskCache struct {
	dir string // schema-qualified root, e.g. .simcache/job-v3+sim-config-v1

	mu      sync.Mutex
	index   map[string]sim.Result
	corrupt uint64 // unusable lines seen while loading (reported once)
}

// schemaSlug makes KeySchema filesystem-safe.
func schemaSlug() string {
	return strings.NewReplacer("/", "-", "\x00", "-").Replace(KeySchema)
}

// segmentSlug makes a Job.Segment filesystem-safe; empty segments pool in
// "misc".
func segmentSlug(segment string) string {
	if segment == "" {
		segment = "misc"
	}
	var b strings.Builder
	for _, r := range segment {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func newDiskCache(root string) (*diskCache, error) {
	dir := filepath.Join(root, schemaSlug())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("schedule: cache dir: %w", err)
	}
	d := &diskCache{dir: dir, index: map[string]sim.Result{}}
	if err := d.load(); err != nil {
		return nil, err
	}
	return d, nil
}

// load scans every segment file under the cache dir into the index.
// Unusable lines — torn appends, stale schemas, hand-edited garbage — are
// counted and skipped, never fatal: the cache is best-effort by contract.
func (d *diskCache) load() error {
	matches, err := filepath.Glob(filepath.Join(d.dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("schedule: scan cache dir: %w", err)
	}
	for _, path := range matches {
		bad, err := scanSegment(path, func(e segEntry) { d.index[e.Key] = e.Result })
		if err != nil {
			bad = 1
		}
		d.corrupt += bad
	}
	return nil
}

// scanSegment calls fn, in file order, with every usable line of one
// segment file: a JSON entry of the current KeySchema with a key. It
// returns how many non-empty lines were unusable, counting an unreadable
// tail as one line.
func scanSegment(path string, fn func(e segEntry)) (bad uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e segEntry
		if json.Unmarshal(line, &e) != nil || e.Schema != KeySchema || e.Key == "" {
			bad++
			continue
		}
		fn(e)
	}
	if sc.Err() != nil {
		bad++
	}
	return bad, nil
}

// loadErrors reports how many unusable lines the open-time scan skipped.
func (d *diskCache) loadErrors() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.corrupt
}

// read returns (result, true) when the key was present in any segment at
// open time or was written through this cache since.
func (d *diskCache) read(key string) (sim.Result, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.index[key]
	return r, ok
}

// write appends the entry to its segment file as one JSON line and — only
// once the append has fully succeeded — indexes it. Indexing first would
// let the process serve a result it believes is durable but that vanishes
// on restart. The open-append-close per write keeps no fds captive between
// runs; one append per executed simulation is noise next to the simulation.
func (d *diskCache) write(key string, j Job, r sim.Result) error {
	e := segEntry{
		Schema:  KeySchema,
		Key:     key,
		Segment: j.Segment,
		Names:   j.Names,
		Warmup:  j.Warmup,
		Measure: j.Measure,
		Result:  r,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')

	path := filepath.Join(d.dir, segmentSlug(j.Segment)+".seg")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}

	d.mu.Lock()
	d.index[key] = r
	d.mu.Unlock()
	return nil
}
