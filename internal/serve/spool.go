package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The spool is the durability layer: one directory per job holding
//
//	spec.json    — the submitted JobSpec (written once at admission)
//	status.json  — the latest JobStatus (atomically replaced)
//	ckpt.bin     — the latest sw.Solver checkpoint (atomically replaced)
//	result.json  — the final Result (completed jobs only)
//
// Every file is written tmp-then-rename, so a crash (kill -9 included)
// leaves either the previous or the next version, never a torn one. The
// recovery scan on startup reads spec+status of every job directory and
// re-admits the interrupted ones from their last checkpoint.
type spool struct {
	dir string
}

func newSpool(dir string) (*spool, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: spool directory must be set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	return &spool{dir: dir}, nil
}

func (sp *spool) jobDir(id string) string { return filepath.Join(sp.dir, id) }

// writeJSONAtomic marshals v and atomically replaces path with it.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// createJob makes the job directory and writes the immutable spec.
func (sp *spool) createJob(id string, spec JobSpec) error {
	if err := os.MkdirAll(sp.jobDir(id), 0o755); err != nil {
		return err
	}
	return writeJSONAtomic(filepath.Join(sp.jobDir(id), "spec.json"), spec)
}

func (sp *spool) writeStatus(st JobStatus) error {
	return writeJSONAtomic(filepath.Join(sp.jobDir(st.ID), "status.json"), st)
}

func (sp *spool) readStatus(id string) (JobStatus, error) {
	var st JobStatus
	err := readJSON(filepath.Join(sp.jobDir(id), "status.json"), &st)
	return st, err
}

func (sp *spool) writeResult(res Result) error {
	return writeJSONAtomic(filepath.Join(sp.jobDir(res.JobID), "result.json"), res)
}

func (sp *spool) readResult(id string) (Result, error) {
	var res Result
	err := readJSON(filepath.Join(sp.jobDir(id), "result.json"), &res)
	return res, err
}

// checkpointPath returns the job's checkpoint file path (which may not
// exist yet).
func (sp *spool) checkpointPath(id string) string {
	return filepath.Join(sp.jobDir(id), "ckpt.bin")
}

// hasCheckpoint reports whether a durable checkpoint exists.
func (sp *spool) hasCheckpoint(id string) bool {
	_, err := os.Stat(sp.checkpointPath(id))
	return err == nil
}

// checkpointer is a trajectory that saves itself as one checkpoint file: a
// single sw.Solver or a whole sw.Ensemble.
type checkpointer interface {
	SaveCheckpoint(path string) error
}

// writeCheckpoint atomically replaces the job's checkpoint with the
// trajectory's current prognostic state.
func (sp *spool) writeCheckpoint(id string, cp checkpointer) error {
	path := sp.checkpointPath(id)
	tmp := path + ".tmp"
	if err := cp.SaveCheckpoint(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// importCheckpoint atomically installs checkpoint bytes streamed from
// elsewhere (the cluster coordinator's mirror) as the job's checkpoint.
func (sp *spool) importCheckpoint(id string, r io.Reader) error {
	path := sp.checkpointPath(id)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// removeJob deletes a job's spool directory (admission rollback).
func (sp *spool) removeJob(id string) error {
	return os.RemoveAll(sp.jobDir(id))
}

// scan enumerates every spooled job (sorted by id for determinism),
// returning the persisted spec and last status. Directories missing either
// file — e.g. a crash between mkdir and the first status write — are
// skipped with their ids collected in `skipped`.
func (sp *spool) scan() (jobs []JobStatus, skipped []string, err error) {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		id := e.Name()
		st, err := sp.readStatus(id)
		if err != nil || st.ID != id {
			skipped = append(skipped, id)
			continue
		}
		jobs = append(jobs, st)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	return jobs, skipped, nil
}
