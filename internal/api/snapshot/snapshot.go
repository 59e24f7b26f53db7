// Package snapshot defines the serving daemon's persistence artifact: a
// versioned, checksummed binary file from which metascriticd boots warm
// (`-load`) and which cmd/metascritic can produce after a batch (`-save`).
//
// An artifact holds (1) the world configuration — worlds are generated
// deterministically from it, so the graph itself is never serialized —
// (2) the serving store's accumulated evidence (the obs package's
// deterministic codec payload), and (3) the served per-metro results:
// everything the v1 endpoints read, omitting run diagnostics the API does
// not expose (RankHistory, Calibrations, Timings).
//
// File framing:
//
//	offset 0  magic   [8]byte  "msacSNAP"
//	offset 8  version uint16   little-endian, currently 2
//	offset 10 length  uint64   payload byte count
//	offset 18 crc     uint32   IEEE CRC-32 of the payload
//	offset 22 payload
//
// The payload is a deterministic uvarint/zigzag/fixed64 encoding (maps in
// sorted key order), so Encode(Decode(x)) is byte-identical to x and two
// equivalent artifacts encode identically — the property behind the
// daemon's "restart with -load serves byte-identical responses" contract.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"metascritic"
	"metascritic/internal/mat"
	"metascritic/internal/obs"
)

// Version is the current artifact format version. Version 2 added epoch
// stamps to the embedded evidence payload (obs epoch log and per-record
// stamps); version-1 artifacts are rejected rather than misread.
const Version = 2

var magic = [8]byte{'m', 's', 'a', 'c', 'S', 'N', 'A', 'P'}

// Typed decode failures, distinguishable with errors.Is.
var (
	// ErrNotSnapshot means the input does not start with the artifact
	// magic — it is some other file, not a corrupted snapshot.
	ErrNotSnapshot = errors.New("snapshot: not a snapshot file")
	// ErrVersion means the artifact was written by an unknown (newer or
	// retired) format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrCorrupt means the framing was recognized but the content is
	// damaged: truncation, checksum mismatch, or a malformed payload.
	ErrCorrupt = errors.New("snapshot: corrupt")
)

// maxPayload bounds the declared payload length (1 GiB) so a corrupted
// header cannot drive a huge allocation before the CRC check.
const maxPayload = 1 << 30

// Artifact is the decoded form of a snapshot file.
type Artifact struct {
	// World is the generation config; Restore regenerates the world from
	// it (worlds are pure functions of their config).
	World metascritic.WorldConfig
	// Evidence is the serving store's obs codec payload.
	Evidence []byte
	// Results holds the served per-metro results.
	Results map[int]*metascritic.Result
}

// Capture builds an artifact from a pipeline's current store and a result
// set. The pipeline must have been built over a world generated from cfg.
func Capture(cfg metascritic.WorldConfig, p *metascritic.Pipeline, results map[int]*metascritic.Result) *Artifact {
	return &Artifact{World: cfg, Evidence: p.Store.EncodeEvidence(), Results: results}
}

// Restore rebuilds a servable pipeline and result set from an artifact:
// the world is regenerated from the config, the pipeline's store is
// loaded from the evidence payload, and results are returned as decoded.
func Restore(a *Artifact) (*metascritic.Pipeline, map[int]*metascritic.Result, error) {
	w := metascritic.GenerateWorld(a.World)
	p := metascritic.NewPipeline(w)
	if err := p.Store.LoadEvidence(a.Evidence); err != nil {
		return nil, nil, fmt.Errorf("%w: evidence: %w", ErrCorrupt, err)
	}
	for m, r := range a.Results {
		if m < 0 || m >= len(w.G.Metros) || r.Metro != m {
			return nil, nil, fmt.Errorf("%w: result metro %d out of range for the encoded world", ErrCorrupt, m)
		}
		for _, as := range r.Members {
			if as < 0 || as >= w.G.N() {
				return nil, nil, fmt.Errorf("%w: metro %d member AS %d out of range", ErrCorrupt, m, as)
			}
		}
	}
	return p, a.Results, nil
}

// Save writes an encoded artifact to path (atomically via a synced temp
// file and rename, so a crash or power loss mid-write never leaves a
// half-snapshot behind: path holds the previous snapshot or the new one).
func Save(path string, a *Artifact) error {
	return save(path, func(w io.Writer) error { return Encode(w, a) })
}

// save is Save with the encoder as a parameter, so tests can fail a
// write midway.
func save(path string, encode func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dirOf(path), ".snap-*")
	if err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: save %s: %w", path, err)
	}
	// Flush the data before the rename publishes it: without the sync, a
	// power loss can persist the rename but not the bytes.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: save %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// Load reads and decodes an artifact from path.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load: %w", err)
	}
	defer f.Close()
	a, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load %s: %w", path, err)
	}
	return a, nil
}

// Encode frames and writes the artifact.
func Encode(w io.Writer, a *Artifact) error {
	payload := appendPayload(nil, a)
	hdr := make([]byte, 22)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	binary.LittleEndian.PutUint64(hdr[10:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[18:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	return nil
}

// Decode reads a framed artifact: magic, version and CRC are verified
// before any payload parsing.
func Decode(r io.Reader) (*Artifact, error) {
	hdr := make([]byte, 22)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: header truncated", ErrNotSnapshot)
		}
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNotSnapshot, hdr[:8])
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[10:])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: declared payload length %d exceeds the %d limit", ErrCorrupt, n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload truncated: %v", ErrCorrupt, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[18:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, content %08x)", ErrCorrupt, want, got)
	}
	// Reject trailing bytes: a snapshot file is exactly one artifact.
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after payload", ErrCorrupt)
	}
	return decodePayload(payload)
}

// --- payload encoding ---

func appendPayload(b []byte, a *Artifact) []byte {
	b = appendWorld(b, a.World)
	b = binary.AppendUvarint(b, uint64(len(a.Evidence)))
	b = append(b, a.Evidence...)

	metros := make([]int, 0, len(a.Results))
	for m := range a.Results {
		metros = append(metros, m)
	}
	sort.Ints(metros)
	b = binary.AppendUvarint(b, uint64(len(metros)))
	for _, m := range metros {
		b = appendResult(b, a.Results[m])
	}
	return b
}

func appendWorld(b []byte, cfg metascritic.WorldConfig) []byte {
	b = binary.AppendVarint(b, cfg.Seed)
	b = binary.AppendUvarint(b, uint64(len(cfg.Metros)))
	for _, m := range cfg.Metros {
		b = appendString(b, m.Name)
		b = appendString(b, m.Country)
		b = appendString(b, m.Continent)
		b = binary.AppendUvarint(b, uint64(m.NumASes))
		b = appendF64(b, m.VPCoverage)
		b = appendBool(b, m.Primary)
	}
	b = binary.AppendUvarint(b, uint64(cfg.LatentDim))
	b = appendF64(b, cfg.FeatureNoise)
	b = appendF64(b, cfg.LinkMaterializeProb)
	b = binary.AppendUvarint(b, uint64(cfg.NumTier1))
	b = binary.AppendUvarint(b, uint64(cfg.NumHypergiants))
	b = binary.AppendUvarint(b, uint64(cfg.NumArchetypes))
	return b
}

func appendResult(b []byte, r *metascritic.Result) []byte {
	b = binary.AppendUvarint(b, uint64(r.Metro))
	b = binary.AppendUvarint(b, uint64(len(r.Members)))
	for _, m := range r.Members {
		b = binary.AppendUvarint(b, uint64(m))
	}
	b = binary.AppendUvarint(b, uint64(r.Rank))
	b = appendF64(b, r.Threshold)
	b = appendF64(b, r.Lambda)
	b = appendF64(b, r.FeatureWeight)
	b = binary.AppendUvarint(b, uint64(r.Measurements))
	b = binary.AppendUvarint(b, uint64(r.BootstrapMeasurements))
	for _, v := range r.StrategyRates {
		b = appendF64(b, v)
	}
	b = appendMatrix(b, r.Ratings)
	b = appendMatrix(b, r.Estimate.E)
	b = appendMask(b, r.Estimate.Mask)
	return b
}

func appendMatrix(b []byte, m *mat.Matrix) []byte {
	b = binary.AppendUvarint(b, uint64(m.Rows))
	b = binary.AppendUvarint(b, uint64(m.Cols))
	for _, v := range m.Data {
		b = appendF64(b, v)
	}
	return b
}

func appendMask(b []byte, m *mat.Mask) []byte {
	n := m.N()
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, j := range row {
			b = binary.AppendUvarint(b, uint64(j))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// --- payload decoding ---

func decodePayload(data []byte) (*Artifact, error) {
	d := &decoder{data: data}
	a := &Artifact{}
	a.World = d.world()

	en := d.count("evidence length")
	if d.err == nil {
		a.Evidence = append([]byte(nil), d.take(en, "evidence")...)
	}

	nr := d.count("result")
	a.Results = make(map[int]*metascritic.Result, nr)
	prev := -1
	for i := 0; i < nr && d.err == nil; i++ {
		r := d.result()
		if d.err != nil {
			break
		}
		if r.Metro <= prev {
			d.fail("results not sorted by metro at %d", r.Metro)
			break
		}
		prev = r.Metro
		a.Results[r.Metro] = r
	}
	if d.err == nil && len(d.data) > 0 {
		d.fail("%d trailing payload bytes", len(d.data))
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}

type decoder struct {
	data []byte
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uint(what string) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 || (n > 1 && d.data[n-1] == 0) {
		d.fail("bad varint for %s", what)
		return 0
	}
	if v > uint64(int(^uint(0)>>1)) {
		d.fail("%s overflows int", what)
		return 0
	}
	d.data = d.data[n:]
	return int(v)
}

func (d *decoder) int64(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 || (n > 1 && d.data[n-1] == 0) {
		d.fail("bad varint for %s", what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

// count reads a collection length, bounded by the remaining input.
func (d *decoder) count(what string) int {
	n := d.uint(what + " count")
	if d.err == nil && n > len(d.data) {
		d.fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return n
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data) {
		d.fail("truncated %s", what)
		return nil
	}
	out := d.data[:n]
	d.data = d.data[n:]
	return out
}

func (d *decoder) f64(what string) float64 {
	b := d.take(8, what)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *decoder) str(what string) string {
	n := d.count(what)
	return string(d.take(n, what))
}

func (d *decoder) bool(what string) bool {
	b := d.take(1, what)
	if d.err != nil {
		return false
	}
	if b[0] > 1 {
		d.fail("bad bool byte %d for %s", b[0], what)
		return false
	}
	return b[0] == 1
}

func (d *decoder) world() metascritic.WorldConfig {
	var cfg metascritic.WorldConfig
	cfg.Seed = d.int64("world seed")
	nm := d.count("metro spec")
	for i := 0; i < nm && d.err == nil; i++ {
		cfg.Metros = append(cfg.Metros, metascritic.MetroSpec{
			Name:       d.str("metro name"),
			Country:    d.str("metro country"),
			Continent:  d.str("metro continent"),
			NumASes:    d.uint("metro NumASes"),
			VPCoverage: d.f64("metro VPCoverage"),
			Primary:    d.bool("metro Primary"),
		})
	}
	cfg.LatentDim = d.uint("LatentDim")
	cfg.FeatureNoise = d.f64("FeatureNoise")
	cfg.LinkMaterializeProb = d.f64("LinkMaterializeProb")
	cfg.NumTier1 = d.uint("NumTier1")
	cfg.NumHypergiants = d.uint("NumHypergiants")
	cfg.NumArchetypes = d.uint("NumArchetypes")
	return cfg
}

func (d *decoder) result() *metascritic.Result {
	r := &metascritic.Result{Metro: d.uint("result metro")}
	nm := d.count("member")
	r.Members = make([]int, 0, nm)
	for i := 0; i < nm && d.err == nil; i++ {
		r.Members = append(r.Members, d.uint("member"))
	}
	r.Rank = d.uint("rank")
	r.Threshold = d.f64("threshold")
	r.Lambda = d.f64("lambda")
	r.FeatureWeight = d.f64("feature weight")
	r.Measurements = d.uint("measurements")
	r.BootstrapMeasurements = d.uint("bootstrap measurements")
	for i := range r.StrategyRates {
		r.StrategyRates[i] = d.f64("strategy rate")
	}
	r.Ratings = d.matrix("ratings")
	e := d.matrix("estimate E")
	mask := d.mask("estimate mask")
	if d.err != nil {
		return r
	}
	n := len(r.Members)
	if r.Ratings.Rows != n || r.Ratings.Cols != n || e.Rows != n || e.Cols != n || mask.N() != n {
		d.fail("metro %d: matrix dimensions disagree with %d members", r.Metro, n)
		return r
	}
	idx := make(map[int]int, n)
	for i, as := range r.Members {
		idx[as] = i
	}
	// The reconstructed estimate carries everything the serving API reads
	// (Value, Mask, Index); it is detached from any store, so a Refresh
	// against a live store would rebuild rather than delta-patch — the
	// daemon never refreshes served estimates.
	r.Estimate = &obs.Estimate{Metro: r.Metro, Members: r.Members, Index: idx, E: e, Mask: mask}
	return r
}

func (d *decoder) matrix(what string) *mat.Matrix {
	rows := d.uint(what + " rows")
	cols := d.uint(what + " cols")
	if d.err != nil {
		return mat.New(0, 0)
	}
	if rows > maxPayload/8 || cols > maxPayload/8 || (cols != 0 && rows > len(d.data)/(8*cols)) {
		d.fail("%s dimensions %dx%d exceed remaining input", what, rows, cols)
		return mat.New(0, 0)
	}
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = d.f64(what + " entry")
	}
	return m
}

func (d *decoder) mask(what string) *mat.Mask {
	n := d.count(what + " dimension")
	if d.err != nil {
		return mat.NewMask(0)
	}
	m := mat.NewMask(n)
	for i := 0; i < n && d.err == nil; i++ {
		rn := d.count(what + " row")
		prev := -1
		for k := 0; k < rn && d.err == nil; k++ {
			j := d.uint(what + " column")
			if d.err != nil {
				break
			}
			if j <= prev || j >= n {
				d.fail("%s row %d not strictly sorted in [0,%d)", what, i, n)
				break
			}
			prev = j
			m.Set(i, j)
		}
	}
	return m
}
