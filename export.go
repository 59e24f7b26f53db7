package metascritic

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Export is the serializable form of a metro result: everything a
// downstream consumer (BGP-hijack monitor, topology modeler, …) needs,
// with ASNs instead of internal indices.
type Export struct {
	Metro         string       `json:"metro"`
	MemberASNs    []int        `json:"member_asns"`
	EffectiveRank int          `json:"effective_rank"`
	Threshold     float64      `json:"threshold"`
	Measurements  int          `json:"measurements"`
	Links         []ExportLink `json:"links"`
}

// ExportLink is one measured or inferred link.
type ExportLink struct {
	ASNA     int     `json:"asn_a"`
	ASNB     int     `json:"asn_b"`
	Rating   float64 `json:"rating"`
	Measured bool    `json:"measured"`
}

// ExportContext converts a result into its serializable form, including
// every link whose rating clears minRating (measured links always
// included). Unlike Export it reports problems instead of exporting
// garbage: a nil or incomplete result, a NaN cutoff, or a ratings triangle
// that does not cover the result's members (C_m is stored as one triangle
// over them; any other size means the result was corrupted in transit).
func (p *Pipeline) ExportContext(ctx context.Context, res *Result, minRating float64) (Export, error) {
	if err := ctx.Err(); err != nil {
		return Export{}, fmt.Errorf("metascritic: export: %w", err)
	}
	if res == nil || res.Ratings == nil || res.Estimate == nil {
		return Export{}, fmt.Errorf("metascritic: export: %w: result is nil or incomplete", ErrInvalidConfig)
	}
	if math.IsNaN(minRating) {
		return Export{}, fmt.Errorf("metascritic: export: %w: minRating is NaN", ErrInvalidConfig)
	}
	if res.Metro < 0 || res.Metro >= len(p.World.G.Metros) {
		return Export{}, fmt.Errorf("metascritic: export: %w: metro index %d out of range", ErrInvalidConfig, res.Metro)
	}
	if n := len(res.Members); res.Ratings.N() != n || len(res.Ratings.Data) != n*(n+1)/2 {
		return Export{}, fmt.Errorf("metascritic: export: ratings triangle holds %d values for %d members, want %d",
			len(res.Ratings.Data), n, n*(n+1)/2)
	}
	return p.Export(res, minRating), nil
}

// Export converts a result into its serializable form, including every
// link whose rating clears minRating (measured links always included).
func (p *Pipeline) Export(res *Result, minRating float64) Export {
	g := p.World.G
	out := Export{
		Metro:         g.Metros[res.Metro].Name,
		EffectiveRank: res.Rank,
		Threshold:     res.Threshold,
		Measurements:  res.Measurements,
	}
	for _, ai := range res.Members {
		out.MemberASNs = append(out.MemberASNs, g.ASes[ai].ASN)
	}
	prog := NewProgressiveTopology(res)
	for _, l := range prog.AtConfidence(minRating) {
		out.Links = append(out.Links, ExportLink{
			ASNA:     g.ASes[l.Pair.A].ASN,
			ASNB:     g.ASes[l.Pair.B].ASN,
			Rating:   l.Rating,
			Measured: l.Measured,
		})
	}
	return out
}

// WriteJSON serializes the export as indented JSON. Errors are wrapped
// with the metro so a failed write in a multi-metro batch is attributable.
func (e Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return fmt.Errorf("metascritic: write JSON export for metro %s: %w", e.Metro, err)
	}
	return nil
}
