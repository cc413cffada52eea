package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"ucpc"
	"ucpc/internal/core"
	"ucpc/internal/persist"
)

// ErrCorruptSnapshot marks a persisted tenant snapshot that failed its
// checksum, framing, or decode validation — the typed error handlers map to
// 503 and boot-time restore answers with quarantine + a healthz degraded
// state. Errors wrap the offending file path.
var ErrCorruptSnapshot = persist.ErrCorrupt

// persistAll snapshots every dirty tenant, returning the first failure
// (after trying the rest). A failure flips healthz to degraded until the
// next clean pass.
func (s *Server) persistAll() error {
	var first error
	for _, t := range s.reg.list() {
		if err := s.persistTenant(t); err != nil {
			s.metrics.snapshotFailures.Add(1)
			s.logger.Error("snapshot failed", "tenant", t.id, "error", err)
			if first == nil {
				first = err
			}
		}
	}
	if first != nil {
		s.setPersistFailure(fmt.Sprintf("persist: %v", first))
		return first
	}
	s.setPersistFailure("")
	return nil
}

// persistTenant writes one tenant's snapshot through the store's atomic
// write path. Unchanged tenants (same ingested count and model version as
// the last durable snapshot) are skipped. The snapshot carries the creation
// spec, the installed serving model verbatim, an engine checkpoint (the
// current stream centroids frozen as a UCPM model — the BeginFrom seed for
// restart), and the exported UCWS statistics; a cold engine simply omits
// the checkpoint and statistics.
//
// The manifest's Seen is the tenant's ingested counter — every object the
// ingester has folded into the fitter — not the engine's own Seen, which
// lags while a cold engine buffers toward its seeding window and resets to
// zero on a warm start. fit.Snapshot() seeds a buffering engine on demand,
// so the checkpoint always covers everything the counter claims.
func (s *Server) persistTenant(t *tenant) error {
	if s.store == nil {
		return nil
	}
	t.persistMu.Lock()
	defer t.persistMu.Unlock()
	fit := t.snapshotFit()
	seen := t.ingested.Load()
	sm := t.serving.Load()
	version := sm.version
	if t.lastSaveNano.Load() != 0 &&
		seen == t.persistedSeen.Load() && version == t.persistedVersion.Load() {
		return nil
	}
	spec, err := json.Marshal(t.spec)
	if err != nil {
		return fmt.Errorf("serve: encode tenant %q spec: %w", t.id, err)
	}
	snap := &persist.TenantSnapshot{
		ID:            t.id,
		Spec:          spec,
		ModelVersion:  version,
		Seen:          seen,
		SavedUnixNano: time.Now().UnixNano(),
	}
	if m := sm.model; m != nil {
		if snap.Model, err = m.MarshalBinary(); err != nil {
			return fmt.Errorf("serve: encode tenant %q model: %w", t.id, err)
		}
	}
	if checkpoint, err := fit.Snapshot(); err == nil {
		if snap.Engine, err = checkpoint.MarshalBinary(); err != nil {
			return fmt.Errorf("serve: encode tenant %q engine checkpoint: %w", t.id, err)
		}
	} else if !errors.Is(err, ucpc.ErrStreamCold) {
		return fmt.Errorf("serve: checkpoint tenant %q: %w", t.id, err)
	}
	if exporter, ok := fit.(interface{ ExportStats() ([]byte, error) }); ok {
		if stats, err := exporter.ExportStats(); err == nil {
			snap.Stats = stats
		} else if !errors.Is(err, ucpc.ErrStreamCold) {
			return fmt.Errorf("serve: export tenant %q statistics: %w", t.id, err)
		}
	}
	if err := s.store.Save(snap); err != nil {
		return err
	}
	t.persistedSeen.Store(seen)
	t.persistedVersion.Store(version)
	t.lastSaveNano.Store(snap.SavedUnixNano)
	s.metrics.snapshots.Add(1)
	return nil
}

// restore replays the state directory on boot: every recoverable tenant
// resumes serving from its persisted model with ingestion warm-started,
// every corrupt or partial snapshot is quarantined and recorded as a
// healthz degraded reason — a damaged disk never prevents startup.
func (s *Server) restore() {
	ids, err := s.store.IDs()
	if err != nil {
		s.addBootDegraded(fmt.Sprintf("restore: %v", err))
		s.logger.Error("restore: listing snapshots failed", "error", err)
		return
	}
	for _, id := range ids {
		snap, err := s.store.Load(id)
		if err == nil {
			err = s.restoreTenant(snap)
		}
		if err == nil {
			s.metrics.tenantsRestored.Add(1)
			s.logger.Info("tenant restored", "tenant", id)
			continue
		}
		if errors.Is(err, os.ErrNotExist) {
			continue // directory without a manifest: a tenant that never persisted
		}
		s.metrics.tenantsQuarantined.Add(1)
		s.addBootDegraded(fmt.Sprintf("tenant %s quarantined: %v", id, err))
		if dst, qerr := s.store.Quarantine(id); qerr == nil {
			s.logger.Error("corrupt snapshot quarantined", "tenant", id, "moved_to", dst, "error", err)
		} else {
			s.logger.Error("corrupt snapshot could not be quarantined", "tenant", id,
				"error", err, "quarantine_error", qerr)
		}
	}
}

// restoreTenant rebuilds one tenant from its snapshot: the spec recreates
// the engines, the persisted serving model is reinstalled verbatim at its
// persisted version, and — for stream tenants — ingestion is warm-started
// from the engine checkpoint via BeginFrom (falling back to the serving
// model, and to a cold engine when neither supports a warm start). Decode
// failures come back wrapping ErrCorruptSnapshot so the caller quarantines.
func (s *Server) restoreTenant(snap *persist.TenantSnapshot) error {
	var spec TenantSpec
	if err := json.Unmarshal(snap.Spec, &spec); err != nil {
		return fmt.Errorf("serve: tenant %q snapshot spec: %v: %w", snap.ID, err, ErrCorruptSnapshot)
	}
	if spec.ID != snap.ID {
		return fmt.Errorf("serve: snapshot %q carries spec for tenant %q: %w",
			snap.ID, spec.ID, ErrCorruptSnapshot)
	}
	var model *ucpc.Model
	if snap.Model != nil {
		model = new(ucpc.Model)
		if err := model.UnmarshalBinary(snap.Model); err != nil {
			return fmt.Errorf("serve: tenant %q snapshot model: %v: %w", snap.ID, err, ErrCorruptSnapshot)
		}
	}
	var checkpoint *ucpc.Model
	if snap.Engine != nil {
		checkpoint = new(ucpc.Model)
		if err := checkpoint.UnmarshalBinary(snap.Engine); err != nil {
			return fmt.Errorf("serve: tenant %q engine checkpoint: %v: %w", snap.ID, err, ErrCorruptSnapshot)
		}
	}
	if snap.Stats != nil {
		// Validate now so bit rot in the statistics file surfaces as a boot
		// quarantine, not a failed merge later.
		if _, err := core.UnmarshalWStats(snap.Stats); err != nil {
			return fmt.Errorf("serve: tenant %q snapshot statistics: %v: %w", snap.ID, err, ErrCorruptSnapshot)
		}
	}
	t, err := newTenant(spec, s.cfg.QueueChunks, s.metrics, s.admissionDefaults())
	if err != nil {
		return fmt.Errorf("serve: tenant %q snapshot spec rejected: %v: %w", snap.ID, err, ErrCorruptSnapshot)
	}
	t.serving.Store(&servingModel{model: model, version: snap.ModelVersion})
	if spec.Shards == 0 {
		warm := checkpoint
		if warm == nil {
			warm = model
		}
		if warm != nil {
			fit, err := (&ucpc.StreamClusterer{Config: t.scfg}).BeginFrom(context.Background(), warm)
			if err == nil {
				t.mu.Lock()
				t.fit = fit
				t.mu.Unlock()
			} else {
				// A model that cannot seed a warm start (e.g. no members) is
				// not corruption: serve from it cold and keep ingesting.
				s.logger.Warn("warm start unavailable, engine restarts cold",
					"tenant", snap.ID, "error", err)
			}
		}
	}
	// The ingested counter resumes from the snapshot so it stays monotonic
	// across restarts (the warm-started engine's own Seen restarts at zero —
	// recovered mass lives in the checkpoint weights, not its counter).
	t.ingested.Store(snap.Seen)
	t.persistedSeen.Store(snap.Seen)
	t.persistedVersion.Store(snap.ModelVersion)
	t.lastSaveNano.Store(snap.SavedUnixNano)
	if !s.reg.add(t) {
		t.closeQueue()
		return fmt.Errorf("serve: tenant %q restored twice", snap.ID)
	}
	s.startPush(t)
	return nil
}
