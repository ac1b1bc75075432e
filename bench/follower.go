package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// countingDial is the follower's transport: the default HTTP dial over the
// run's own client, counting the bytes of the replication stream.
type countingDial struct {
	client   *http.Client
	bytes    atomic.Int64
	lastRead atomic.Int64 // unix ns of the latest stream read
}

func (c *countingDial) dial(ctx context.Context, rawURL string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("leader: %s", resp.Status)
	}
	return &countingBody{resp.Body, c}, nil
}

type countingBody struct {
	io.ReadCloser
	c *countingDial
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.bytes.Add(int64(n))
	b.c.lastRead.Store(time.Now().UnixNano())
	return n, err
}

func dirSize(dir string) (total int64) {
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func manifestSize(dir string) int64 {
	info, err := os.Stat(filepath.Join(dir, "manifest.log"))
	if err != nil {
		return 0
	}
	return info.Size()
}

// timeCalls times n calls of fn.
func timeCalls(n int, fn func()) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = time.Since(t)
	}
	return ds
}
