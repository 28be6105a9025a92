package geckoftl_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"geckoftl"
	"geckoftl/internal/checkpoint"
)

var updateGolden = flag.Bool("update", false, "rewrite golden checkpoint files")

// goldenCheckpointBytes produces a canonical deterministic checkpoint: a
// fixed device, shaped further by extra (a channel count, one shard a
// channel), under a fixed seeded workload, cleanly closed. Every shard
// stamps its pages from its own partition's write sequence, so the bytes
// depend only on the seed, not on how the Go scheduler interleaves the
// shards of a batch.
func goldenCheckpointBytes(t *testing.T, extra ...geckoftl.Option) []byte {
	t.Helper()
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	dev := open(t, append([]geckoftl.Option{
		geckoftl.WithCacheEntries(512),
		geckoftl.WithCheckpointPath(path),
	}, extra...)...)
	fillRandom(t, dev, 20160626) // SIGMOD '16 program week
	if err := dev.Close(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointGoldenV1 pins the version-1 on-disk format byte for byte
// against committed golden files, for a one-shard and a four-shard device.
// A mismatch means the encoding changed or a shard's state came to depend on
// its siblings' timing: if the encoding change is intentional, bump
// checkpoint.Version so old files fall back cleanly, and regenerate with
// `go test -run TestCheckpointGoldenV1 -update .`. CI runs it at several
// GOMAXPROCS values, which is where a scheduling dependence shows.
func TestCheckpointGoldenV1(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		extra  []geckoftl.Option
	}{
		{"1ch", "checkpoint_v1.golden", nil},
		{"4ch", "checkpoint_v1_4ch.golden", []geckoftl.Option{geckoftl.WithChannels(4, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := goldenCheckpointBytes(t, tc.extra...)
			golden := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("checkpoint bytes diverge from the committed v1 golden (%d bytes now, %d committed): format or determinism regression", len(data), len(want))
			}
			f, err := checkpoint.Decode(want)
			if err != nil {
				t.Fatalf("committed golden no longer decodes: %v", err)
			}
			if f.Version != 1 {
				t.Fatalf("golden decodes as version %d, want 1", f.Version)
			}
		})
	}
}

// TestCheckpointFutureVersionFallsBack pins forward compatibility: a
// checkpoint stamped with an unknown future format version — everything
// else intact — must be rejected at Open and fall back to a cold start, so
// downgrading a deployment never loads state it cannot parse.
func TestCheckpointFutureVersionFallsBack(t *testing.T) {
	ctx := context.Background()
	data := goldenCheckpointBytes(t)
	// The version word sits after the 8-byte magic; it is outside any
	// section checksum, so the bump alone makes a well-formed future file.
	binary.LittleEndian.PutUint32(data[8:], 999)
	if _, err := checkpoint.Decode(data); !errors.Is(err, checkpoint.ErrInvalid) {
		t.Fatalf("future version decoded: %v", err)
	}
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dev := ckptOpen(t, path)
	defer dev.Close(ctx)
	load := dev.CheckpointLoad()
	if !load.Attempted || load.Loaded || !errors.Is(load.Err, geckoftl.ErrCheckpointInvalid) {
		t.Fatalf("CheckpointLoad = %+v, want a classified rejection", load)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	fillRandom(t, dev, 1)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
