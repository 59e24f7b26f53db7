package snapshot

// Artifact codec tests: a captured pipeline+results round-trips through
// Encode/Decode/Restore with byte-identical re-encoding and
// functionally identical serving state; damaged files are rejected with
// the right typed error (ErrNotSnapshot / ErrVersion / ErrCorrupt); and
// a fuzz harness pins "no panic, and acceptance implies decode→encode
// stability" on arbitrary payload bytes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"metascritic"
)

// testArtifact runs two small metros and captures the pipeline.
func testArtifact(t testing.TB) *Artifact {
	t.Helper()
	cfg := metascritic.WorldConfig{
		Seed: 11,
		Metros: []metascritic.MetroSpec{
			{Name: "A", Country: "NL", Continent: "EU", NumASes: 40, VPCoverage: 0.8, Primary: true},
			{Name: "B", Country: "US", Continent: "NA", NumASes: 30, VPCoverage: 0.6, Primary: true},
			{Name: "C", Country: "DE", Continent: "EU", NumASes: 25, VPCoverage: 0.7},
		},
	}
	w := metascritic.GenerateWorld(cfg)
	p := metascritic.NewPipeline(w)
	rng := rand.New(rand.NewSource(2))
	p.SeedPublicMeasurements(6, rng)

	rcfg := metascritic.DefaultConfig()
	rcfg.MaxMeasurements = 400
	rcfg.BatchSize = 80
	rcfg.Rank.MaxRank = 6
	rcfg.Rank.Iterations = 3
	results := map[int]*metascritic.Result{}
	for m := 0; m < 2; m++ {
		res, err := p.Snapshot().Run(context.Background(), m, rcfg)
		if err != nil {
			t.Fatalf("run metro %d: %v", m, err)
		}
		// The artifact does not carry run diagnostics; drop them so
		// DeepEqual comparisons below compare exactly the served fields.
		res.RankHistory, res.Calibrations, res.Timings = nil, nil, metascritic.PhaseTimings{}
		results[m] = res
	}
	return Capture(cfg, p, results)
}

func encode(t testing.TB, a *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestArtifactRoundTrip(t *testing.T) {
	a := testArtifact(t)
	enc := encode(t, a)

	dec, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(encode(t, dec), enc) {
		t.Fatalf("re-encoding the decoded artifact is not byte-identical")
	}
	if !reflect.DeepEqual(dec.World, a.World) {
		t.Fatalf("world config changed in round trip:\n got %+v\nwant %+v", dec.World, a.World)
	}
	if !bytes.Equal(dec.Evidence, a.Evidence) {
		t.Fatalf("evidence payload changed in round trip")
	}

	p, results, err := Restore(dec)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := p.Store.EncodeEvidence(), a.Evidence; !bytes.Equal(got, want) {
		t.Fatalf("restored store evidence differs from the captured store")
	}
	for m, want := range a.Results {
		got := results[m]
		if got == nil {
			t.Fatalf("metro %d missing after restore", m)
		}
		// Estimates compare equal except for the unexported
		// delta-maintenance bookkeeping, which Restore leaves detached.
		if !reflect.DeepEqual(got.Estimate.E, want.Estimate.E) ||
			got.Estimate.Mask.Count() != want.Estimate.Mask.Count() ||
			!reflect.DeepEqual(got.Estimate.Index, want.Estimate.Index) {
			t.Fatalf("metro %d estimate changed in round trip", m)
		}
		got.Estimate, want.Estimate = nil, nil
		// Warm ALS factors are derived state; Restore leaves them detached
		// (a post-restore Rescore cold-starts its completion).
		got.Factors, want.Factors = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("metro %d result changed in round trip:\n got %+v\nwant %+v", m, got, want)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := Save(path, a); err != nil {
		t.Fatalf("save: %v", err)
	}
	b, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !bytes.Equal(encode(t, b), encode(t, a)) {
		t.Fatalf("Save/Load round trip is not byte-identical")
	}
	// No temp files left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left in snapshot dir: %v", ents)
	}
}

// TestSaveFailureKeepsPreviousSnapshot pins Save's crash contract: a
// write that fails midway, and a stale temp file left by a crashed
// writer, both leave the previous snapshot loadable byte-for-byte.
func TestSaveFailureKeepsPreviousSnapshot(t *testing.T) {
	a := testArtifact(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.snap")
	if err := Save(path, a); err != nil {
		t.Fatalf("save: %v", err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := func(stage string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot bytes changed", stage)
		}
		b, err := Load(path)
		if err != nil {
			t.Fatalf("%s: load: %v", stage, err)
		}
		if !bytes.Equal(encode(t, b), want) {
			t.Fatalf("%s: loaded snapshot does not re-encode to the saved bytes", stage)
		}
	}

	errDisk := errors.New("disk full")
	err = save(path, func(w io.Writer) error {
		if _, err := w.Write(want[:len(want)/2]); err != nil {
			return err
		}
		return errDisk
	})
	if !errors.Is(err, errDisk) {
		t.Fatalf("failed write: got error %v, want %v", err, errDisk)
	}
	intact("after a failed save")
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("failed save left temp files: %v", ents)
	}

	stale := filepath.Join(dir, ".snap-stale")
	if err := os.WriteFile(stale, want[:len(want)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	intact("beside a stale temp file")
	if err := Save(path, a); err != nil {
		t.Fatalf("save beside a stale temp file: %v", err)
	}
	intact("after saving beside a stale temp file")
}

func TestDecodeRejectsForeignFile(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("{}"),
		[]byte("not a snapshot at all, just some prose"),
	} {
		if _, err := Decode(bytes.NewReader(in)); !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("input %q: got %v, want ErrNotSnapshot", in, err)
		}
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	enc := encode(t, testArtifact(t))
	for _, v := range []uint16{0, Version + 1, 0xffff} {
		mut := append([]byte{}, enc...)
		binary.LittleEndian.PutUint16(mut[8:], v)
		if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	enc := encode(t, testArtifact(t))

	// Truncation anywhere: header truncations read as not-a-snapshot,
	// payload truncations as corruption.
	for _, n := range []int{0, 7, 21, 22, len(enc) / 2, len(enc) - 1} {
		_, err := Decode(bytes.NewReader(enc[:n]))
		if n < 22 {
			if !errors.Is(err, ErrNotSnapshot) {
				t.Fatalf("truncation to %d: got %v, want ErrNotSnapshot", n, err)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: got %v, want ErrCorrupt", n, err)
		}
	}

	// Any payload bit flip trips the checksum.
	for _, pos := range []int{22, 22 + (len(enc)-22)/2, len(enc) - 1} {
		mut := append([]byte{}, enc...)
		mut[pos] ^= 0x40
		if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
	}

	// Trailing bytes are rejected.
	if _, err := Decode(bytes.NewReader(append(append([]byte{}, enc...), 0))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}

	// An absurd declared length fails before allocating it.
	mut := append([]byte{}, enc...)
	binary.LittleEndian.PutUint64(mut[10:], 1<<40)
	if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: got %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsAsymmetricRatings pins that the ratings, stored as one
// triangle, decode only from a dense matrix whose every cell repeats its
// mirror: a payload (checksum aside) where cell (1, 0) differs from (0, 1)
// is corrupt.
func TestDecodeRejectsAsymmetricRatings(t *testing.T) {
	a := testArtifact(t)
	// Give cell (0, 1) of metro 0's ratings a value found nowhere else in
	// the payload: it is then encoded exactly twice, at the cell and at
	// its mirror (1, 0), which comes later in row-major order.
	const mark = 0.123456789012345
	a.Results[0].Ratings.Set(0, 1, mark)
	payload := appendPayload(nil, a)
	if _, err := decodePayload(payload); err != nil {
		t.Fatalf("symmetric payload rejected: %v", err)
	}
	enc := binary.LittleEndian.AppendUint64(nil, math.Float64bits(mark))
	first := bytes.Index(payload, enc)
	second := first + 8 + bytes.Index(payload[first+8:], enc)
	if first < 0 || second < first+8 || bytes.Count(payload, enc) != 2 {
		t.Fatalf("marked ratings cell encoded %d times, want 2", bytes.Count(payload, enc))
	}
	mut := append([]byte{}, payload...)
	binary.LittleEndian.PutUint64(mut[second:], math.Float64bits(-mark))
	if _, err := decodePayload(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ratings cell differing from its mirror: got %v, want ErrCorrupt", err)
	}
}

// FuzzDecodePayload drives arbitrary bytes through the payload parser
// (framed with a correct header so the CRC gate does not mask it): it
// must never panic, and any accepted payload must re-encode identically.
func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte{})
	var buf bytes.Buffer
	if err := Encode(&buf, testArtifact(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[22:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := decodePayload(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if !bytes.Equal(appendPayload(nil, a), payload) {
			t.Fatalf("accepted payload is not a decode→encode fixed point")
		}
	})
}

func BenchmarkSnapshotLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.snap")
	if err := Save(path, testArtifact(b)); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
