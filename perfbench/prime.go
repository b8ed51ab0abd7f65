package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	apusim "repro"
	"repro/internal/durable"
	"repro/internal/service"
)

// primeTemplate builds serve-durable's data dir from the seed: the
// service itself (in-process, untimed) admits primeJobs jobs over
// primedKeys distinct specs, simulates each distinct spec once, and drains,
// which checkpoints every job into the journal. A daemon started over a
// copy of the dir replays all of them.
//
// Priming skips fsync (noSyncFS): the template only has to be complete
// when the drain returns, not survive a crash, and fsync would make
// priming cost seconds of untimed wall time per run.
func primeTemplate(dir string, seed uint64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	srv, err := service.New(service.Config{
		Registry:   apusim.Experiments(),
		Workers:    2,
		QueueDepth: primeJobs,
		DataDir:    dir,
		FS:         noSyncFS{durable.OS()},
	})
	if err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	h := srv.Handler()
	for _, s := range primedJobList(seed, primedKeys(seed)) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(s.body())))
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			return fmt.Errorf("priming: submit %s: HTTP %d: %s", s.Experiment, rec.Code, rec.Body.String())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("priming: drain: %w", err)
	}
	return nil
}

// noSyncFS is the real filesystem with fsync turned into a no-op.
type noSyncFS struct{ durable.FS }

func (f noSyncFS) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ durable.File }

func (noSyncFile) Sync() error { return nil }
