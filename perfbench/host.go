package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostFacts records what a result depends on besides the code: the host's
// parallelism, the toolchain, the source under test and the seed. The commit
// comes from PERFBENCH_COMMIT (set by run.sh when the checkout is a git
// repository); the source digest identifies the tree either way.
func hostFacts(workload string, seed int64) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"nodes":         benchNodes,
		"workers":       benchWorkers,
	}
}

// sourceDigest hashes every Go source and module file under root (the
// repository the benchmark was built from), skipping build output.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
