package core

import (
	"errors"
	"strings"
	"testing"

	"meryn/internal/cluster"
	"meryn/internal/workload"
)

func TestConfigRejectsDuplicateVCNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 10},
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 10},
	}
	_, err := NewPlatform(cfg)
	var dup *DuplicateVCError
	if !errors.As(err, &dup) {
		t.Fatalf("err = %v, want *DuplicateVCError", err)
	}
	if dup.Name != "vc1" {
		t.Fatalf("dup.Name = %q", dup.Name)
	}
}

func TestConfigRejectsZeroNodeSite(t *testing.T) {
	cfg := DefaultConfig()
	// A named site with no nodes is a mistake, not a request for the
	// default: it used to be silently replaced by the paper setup.
	cfg.Site = cluster.Config{Name: "empty-dc", Nodes: 0, CoresPerNode: 12, MemoryMBPerNode: 49152}
	_, err := NewPlatform(cfg)
	var se *SiteError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SiteError", err)
	}

	cfg.Site.Nodes = -3
	if _, err := NewPlatform(cfg); !errors.As(err, &se) {
		t.Fatalf("negative nodes: err = %v, want *SiteError", err)
	}
}

func TestConfigZeroValueSiteStillDefaults(t *testing.T) {
	// The entirely zero-valued Site keeps meaning "the paper's setup".
	p, err := NewPlatform(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Config().Site.Nodes; got != 9 {
		t.Fatalf("defaulted site nodes = %d, want 9", got)
	}
}

func TestConfigRejectsBadVCs(t *testing.T) {
	var vcErr *VCError

	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "", Type: workload.TypeBatch}}
	if _, err := NewPlatform(cfg); !errors.As(err, &vcErr) {
		t.Fatalf("empty name: err = %v, want *VCError", err)
	}

	cfg = DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: "quantum"}}
	if _, err := NewPlatform(cfg); !errors.As(err, &vcErr) {
		t.Fatalf("bad type: err = %v, want *VCError", err)
	}

	cfg = DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: -1}}
	if _, err := NewPlatform(cfg); !errors.As(err, &vcErr) {
		t.Fatalf("negative VMs: err = %v, want *VCError", err)
	}
}

// TestConfigRejectsNegativeKnobs: each of these values used to be
// accepted. A negative conservative speed prices every offer below zero
// and fails the first audit, and a negative penalty divisor or
// processing estimate silently rewrites every contract.
func TestConfigRejectsNegativeKnobs(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"ConservativeSpeed", func(c *Config) { c.ConservativeSpeed = -1 }},
		{"PenaltyN", func(c *Config) { c.PenaltyN = -1 }},
		{"ProcessingEstimate", func(c *Config) { c.ProcessingEstimate = -84 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg)
			_, err := NewPlatform(cfg)
			if err == nil || !strings.HasPrefix(err.Error(), "core: ") || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("err = %v, want a core: error naming %s", err, tc.field)
			}
		})
	}
}
