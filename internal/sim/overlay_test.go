package sim

import (
	"testing"

	"socialtrust/internal/fault"
)

// TestShardCountBitIdentity runs the same seeded experiment through the
// default single manager (Managers 0), one explicit manager, and a 4-shard
// overlay. The overlay merge restores the ledger's deterministic global
// ordering whatever the shard count, so request accounting, the per-cycle
// reputation history and the final vector must all match bit for bit.
func TestShardCountBitIdentity(t *testing.T) {
	for _, model := range []CollusionModel{PCM, MCM, MMM} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := DefaultConfig(model, EngineEigenTrust, 0.6, true)
			cfg.QueryCycles, cfg.SimulationCycles = 5, 4
			cfg.Seed = 7
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, managers := range []int{1, 4} {
				cfg.Managers = managers
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.TotalRequests != ref.TotalRequests || got.AuthenticServed != ref.AuthenticServed {
					t.Fatalf("Managers=%d: requests %d/%d authentic, want %d/%d",
						managers, got.TotalRequests, got.AuthenticServed, ref.TotalRequests, ref.AuthenticServed)
				}
				if len(got.History) != len(ref.History) {
					t.Fatalf("Managers=%d: history length %d, want %d", managers, len(got.History), len(ref.History))
				}
				for c := range ref.History {
					if !sameBits(got.History[c], ref.History[c]) {
						t.Fatalf("Managers=%d: reputation history diverges at cycle %d", managers, c+1)
					}
				}
				if !sameBits(got.FinalReputations, ref.FinalReputations) {
					t.Fatalf("Managers=%d: final reputations diverge from Managers=0", managers)
				}
			}
		})
	}
}

// TestFaultModeBitIdenticalToSeedOverlay proves the replica machinery free
// of observable effect when nothing is injected: the same experiment through
// the seed overlay and through fault-tolerant mode (replication, retries,
// deadlines armed via AlwaysOn, zero injected faults) must produce
// bit-identical reputation vectors — the replica ledgers mirror the
// primaries exactly and never perturb the merge.
func TestFaultModeBitIdenticalToSeedOverlay(t *testing.T) {
	cfg := DefaultConfig(PCM, EngineEigenTrust, 0.6, true)
	cfg.QueryCycles, cfg.SimulationCycles = 5, 4
	cfg.Seed = 7
	cfg.Managers = 4

	seed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.Config{AlwaysOn: true}
	hardened, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seed.TotalRequests != hardened.TotalRequests {
		t.Fatalf("requests: seed %d, fault-mode %d", seed.TotalRequests, hardened.TotalRequests)
	}
	for i := range seed.FinalReputations {
		if seed.FinalReputations[i] != hardened.FinalReputations[i] {
			t.Fatalf("reputation[%d]: seed overlay %g, fault-mode overlay %g (not bit-identical)",
				i, seed.FinalReputations[i], hardened.FinalReputations[i])
		}
	}
	if hardened.RatingsLost != 0 || hardened.PartialDrains != 0 || hardened.ReplicaDrains != 0 {
		t.Fatalf("AlwaysOn plan with zero rates injected faults: %+v", hardened)
	}
}

// TestOverlayConfigValidation rejects impossible manager counts.
func TestOverlayConfigValidation(t *testing.T) {
	cfg := DefaultConfig(PCM, EngineEigenTrust, 0.6, false)
	cfg.Managers = cfg.NumNodes + 1
	if _, err := Run(cfg); err == nil {
		t.Error("Managers > NumNodes should fail validation")
	}
	cfg.Managers = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative Managers should fail validation")
	}
}
