package metascritic

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"metascritic/internal/mat"
)

func TestExportRoundTrip(t *testing.T) {
	p, res := topoResult(t)
	exp := p.Export(res, 0.5)
	if exp.Metro == "" || exp.EffectiveRank != res.Rank {
		t.Fatalf("export metadata wrong: %+v", exp)
	}
	if len(exp.MemberASNs) != len(res.Members) {
		t.Fatalf("member count mismatch")
	}
	if len(exp.Links) == 0 {
		t.Fatalf("no links exported")
	}
	asnSet := map[int]bool{}
	for _, a := range exp.MemberASNs {
		asnSet[a] = true
	}
	for _, l := range exp.Links {
		if !asnSet[l.ASNA] || !asnSet[l.ASNB] {
			t.Fatalf("link references non-member ASN: %+v", l)
		}
		if l.Rating < 0.5 && !l.Measured {
			t.Fatalf("link below minRating exported: %+v", l)
		}
	}

	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Metro != exp.Metro || len(back.Links) != len(exp.Links) {
		t.Fatalf("round trip lost data")
	}
}

func TestExportContext(t *testing.T) {
	p, res := topoResult(t)
	ctx := context.Background()

	exp, err := p.ExportContext(ctx, res, 0.5)
	if err != nil {
		t.Fatalf("ExportContext on a valid result: %v", err)
	}
	plain := p.Export(res, 0.5)
	if exp.Metro != plain.Metro || len(exp.Links) != len(plain.Links) {
		t.Fatalf("ExportContext diverges from Export: %d vs %d links", len(exp.Links), len(plain.Links))
	}

	if _, err := p.ExportContext(ctx, nil, 0.5); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil result: got %v, want ErrInvalidConfig", err)
	}
	if _, err := p.ExportContext(ctx, res, math.NaN()); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NaN minRating: got %v, want ErrInvalidConfig", err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.ExportContext(cancelled, res, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
	}

	// A corrupted ratings triangle (one that does not cover the members)
	// must be rejected, and the check must not mutate the caller's result.
	bad := *res
	n := len(res.Members)
	bad.Ratings = mat.NewSym(n - 1)
	copy(bad.Ratings.Data, res.Ratings.Data)
	if _, err := p.ExportContext(ctx, &bad, 0.5); err == nil {
		t.Fatalf("ratings triangle of %d members accepted for %d", n-1, n)
	} else if errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("a mis-sized triangle is corruption, not misconfiguration: %v", err)
	}
	if res.Ratings.N() != n {
		t.Fatalf("ExportContext mutated the caller's ratings")
	}
}
