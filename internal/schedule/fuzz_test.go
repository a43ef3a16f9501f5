package schedule

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

// FuzzJobValidate checks Validate's contract: every job it accepts builds
// and runs without panicking. The fuzzer varies the core count, the LLC
// policy, one benchmark name, the instruction budgets (uint16, so each case
// stays small) and the sampling layout; rejected jobs end the case.
//
//	go test ./internal/schedule -run '^$' -fuzz FuzzJobValidate -fuzztime 10s
func FuzzJobValidate(f *testing.F) {
	f.Add(uint8(2), "tadrrip", "gcc", uint16(1000), uint16(5000), int16(0), uint16(0), uint16(0))
	f.Add(uint8(4), "adapt", "mcf", uint16(0), uint16(8000), int16(4), uint16(0), uint16(0))
	// Jobs Validate must reject because Run panics on them: an unknown
	// benchmark, more windows than measured instructions, a window longer
	// than its period, no measured budget.
	f.Add(uint8(1), "tadrrip", "nosuch", uint16(0), uint16(1000), int16(0), uint16(0), uint16(0))
	f.Add(uint8(1), "tadrrip", "gcc", uint16(0), uint16(10), int16(100), uint16(0), uint16(0))
	f.Add(uint8(1), "tadrrip", "gcc", uint16(0), uint16(1000), int16(2), uint16(900), uint16(0))
	f.Add(uint8(1), "tadrrip", "gcc", uint16(100), uint16(0), int16(0), uint16(0), uint16(0))
	names := bench.Names()
	f.Fuzz(func(t *testing.T, cores uint8, llcPolicy, name string, warmup, measure uint16,
		windows int16, detail, warm uint16) {
		cfg := sim.Scale(sim.DefaultConfig(int(cores%5)), 64)
		cfg.LLCPolicy = llcPolicy
		cfg.Sample = sim.SampleConfig{Windows: int(windows), DetailInstr: uint64(detail), WarmInstr: uint64(warm)}
		j := Job{Config: cfg, Names: make([]string, cfg.Cores), Warmup: uint64(warmup), Measure: uint64(measure)}
		for i := range j.Names {
			j.Names[i] = names[i%len(names)]
		}
		if len(j.Names) > 0 {
			j.Names[0] = name
		}
		if j.Validate() != nil {
			return
		}
		j.run()
	})
}

// FuzzSegmentStore feeds arbitrary bytes to the disk tier as a segment
// file. Opening it never fails or panics; every non-empty line is either
// usable or counted in DiskErrors; and after MaintainStore a reopened cache
// serves the same keys and results with no DiskErrors left.
//
//	go test ./internal/schedule -run '^$' -fuzz FuzzSegmentStore -fuzztime 10s
func FuzzSegmentStore(f *testing.F) {
	line := func(key, schema string) string {
		return fmt.Sprintf(`{"schema":%q,"key":%q,"result":{"Apps":[{"IPC":0.5}]}}`, schema, key)
	}
	good := line("k1", KeySchema)
	f.Add([]byte(good + "\n" + line("k2", KeySchema) + "\n"))
	f.Add([]byte(good + "\n" + good + "\n" + line("k2", "job/v1") + "\n"))        // duplicate key, stale schema
	f.Add([]byte(good + "\r\n\n\n" + good[:len(good)/2]))                         // CRLF, blank lines, torn tail
	f.Add([]byte("garbage\n{}\n" + line("", KeySchema) + "\n" + good + "\n\xff")) // garbage, keyless entry
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, schemaSlug())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fuzz.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		nonEmpty := uint64(0)
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
				nonEmpty++
			}
		}

		s := New(1)
		if err := s.SetCacheDir(root); err != nil {
			t.Fatalf("SetCacheDir: %v", err)
		}
		usable := uint64(0)
		if _, err := scanSegment(filepath.Join(dir, "fuzz.seg"), func(segEntry, []byte) { usable++ }); err != nil {
			t.Fatal(err)
		}
		if errs := s.Stats().DiskErrors; usable+errs != nonEmpty {
			t.Fatalf("%d usable lines + %d disk errors != %d non-empty lines", usable, errs, nonEmpty)
		}
		before := maps.Clone(s.disk.index)

		if _, err := MaintainStore(root, 0); err != nil {
			t.Fatalf("MaintainStore: %v", err)
		}
		r := New(1)
		if err := r.SetCacheDir(root); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if errs := r.Stats().DiskErrors; errs != 0 {
			t.Fatalf("%d disk errors after maintenance", errs)
		}
		if !reflect.DeepEqual(r.disk.index, before) {
			t.Fatalf("maintenance changed the served entries:\nbefore %v\nafter  %v", before, r.disk.index)
		}
	})
}
