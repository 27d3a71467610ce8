package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent is the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// parent and query say whom device calls made now belong to. Only the
	// closed-loop workloads use them: one client, synchronous maintenance,
	// so every device call happens inside the query the client is running.
	parent atomic.Int64
	query  atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span and returns its id.
func (r *recorder) open(name string, parent int64, query int) int64 {
	t := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: t})
	r.mu.Unlock()
	return id
}

// close ends span id, noting the bytes it moved.
func (r *recorder) close(id, bytes int64) {
	t := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = t
	r.spans[id-1].Bytes = bytes
	r.mu.Unlock()
}

// add records a span timed by someone else (the dispatcher's own
// measurements) and returns its id.
func (r *recorder) add(name string, parent int64, query int, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// enter opens a span and makes it the parent of the device calls that
// follow, until the returned function closes it.
func (r *recorder) enter(name string, query int) func() {
	prev, prevQ := r.parent.Load(), r.query.Load()
	id := r.open(name, prev, query)
	r.parent.Store(id)
	r.query.Store(int64(query))
	return func() {
		r.close(id, 0)
		r.parent.Store(prev)
		r.query.Store(prevQ)
	}
}

// selfTime sums, over spans named name, the self time (duration minus the
// time of its direct children), and counts them.
func (r *recorder) selfTime(name string) (self time.Duration, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int64]time.Duration)
	for i := range r.spans {
		if p := r.spans[i].Parent; p > 0 {
			child[p] += r.spans[i].dur()
		}
	}
	for i := range r.spans {
		if r.spans[i].Name == name {
			self += r.spans[i].dur() - child[r.spans[i].ID]
			n++
		}
	}
	return self, n
}

// deviceCalls sums the simdisk spans whose parent is a span named parent:
// count, time and bytes moved.
func (r *recorder) deviceCalls(parent string) (n int, t time.Duration, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent > 0 && r.spans[s.Parent-1].Name == parent && isDeviceSpan(s.Name) {
			n++
			t += s.dur()
			bytes += s.Bytes
		}
	}
	return n, t, bytes
}

func isDeviceSpan(name string) bool { return len(name) > 8 && name[:8] == "simdisk." }

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe decorates a simdisk.Storage: every page and file call it forwards
// runs inside a span parented to the recorder's current span. Metadata,
// clock and counter calls pass straight through. The probe adds no
// behaviour of its own, so an engine assembled on it charges the simulated
// device exactly as one on the bare device does (see fidelity_test.go).
type probe struct {
	simdisk.Storage
	rec *recorder
}

func (p *probe) begin(name string) int64 {
	return p.rec.open(name, p.rec.parent.Load(), int(p.rec.query.Load()))
}

func (p *probe) CreateFile(name string) simdisk.FileID {
	s := p.begin("simdisk.CreateFile")
	defer p.rec.close(s, 0)
	return p.Storage.CreateFile(name)
}

func (p *probe) CreateFileInGroup(name, group string) simdisk.FileID {
	s := p.begin("simdisk.CreateFile")
	defer p.rec.close(s, 0)
	return p.Storage.CreateFileInGroup(name, group)
}

func (p *probe) DeleteFile(id simdisk.FileID) error {
	s := p.begin("simdisk.DeleteFile")
	defer p.rec.close(s, 0)
	return p.Storage.DeleteFile(id)
}

func (p *probe) ReadPage(id simdisk.FileID, idx int64, buf []byte) error {
	s := p.begin("simdisk.ReadPage")
	err := p.Storage.ReadPage(id, idx, buf)
	p.rec.close(s, int64(len(buf)))
	return err
}

func (p *probe) ReadPageCtx(ctx context.Context, id simdisk.FileID, idx int64, buf []byte) error {
	s := p.begin("simdisk.ReadPage")
	err := p.Storage.ReadPageCtx(ctx, id, idx, buf)
	p.rec.close(s, int64(len(buf)))
	return err
}

func (p *probe) WritePage(id simdisk.FileID, idx int64, data []byte) error {
	s := p.begin("simdisk.WritePage")
	defer p.rec.close(s, 0)
	return p.Storage.WritePage(id, idx, data)
}

func (p *probe) WritePageCtx(ctx context.Context, id simdisk.FileID, idx int64, data []byte) error {
	s := p.begin("simdisk.WritePage")
	defer p.rec.close(s, 0)
	return p.Storage.WritePageCtx(ctx, id, idx, data)
}

func (p *probe) AppendPage(id simdisk.FileID, data []byte) (int64, error) {
	s := p.begin("simdisk.AppendPage")
	defer p.rec.close(s, 0)
	return p.Storage.AppendPage(id, data)
}

func (p *probe) AppendPageCtx(ctx context.Context, id simdisk.FileID, data []byte) (int64, error) {
	s := p.begin("simdisk.AppendPage")
	defer p.rec.close(s, 0)
	return p.Storage.AppendPageCtx(ctx, id, data)
}

func (p *probe) ReadRun(id simdisk.FileID, start, n int64) ([]byte, error) {
	s := p.begin("simdisk.ReadRun")
	buf, err := p.Storage.ReadRun(id, start, n)
	p.rec.close(s, int64(len(buf)))
	return buf, err
}

func (p *probe) ReadRunCtx(ctx context.Context, id simdisk.FileID, start, n int64) ([]byte, error) {
	s := p.begin("simdisk.ReadRun")
	buf, err := p.Storage.ReadRunCtx(ctx, id, start, n)
	p.rec.close(s, int64(len(buf)))
	return buf, err
}

var _ simdisk.Storage = (*probe)(nil)

// replayed is what the layer replay measured.
type replayed struct {
	queries, leaves, pages, objects, results int
	leafAllocs                               float64 // heap allocations per Tree.ReadPartitionCtx
	decode                                   time.Duration
}

// replayQueries bounds the replay's length.
const replayQueries = 200

// replay splits the layers the engine calls internally. After the traced
// workload it walks the first replayQueries queries again on the layout
// the workload left, timing the public entry points of each layer in its
// own span: Tree.Lookup, Tree.ReadPartitionCtx and File.ReadRunsIntoCtx
// on every leaf a query's extended window touches, object.DecodePage on
// each of those leaves' pages, and Raw.ScanCtx on every raw file the
// workload scanned. The device calls inside land in simdisk spans through
// the probe, which give each layer its self time.
func replay(rec *recorder, trees map[object.DatasetID]*octree.Tree, queries []workload.Query, want []digest, scanned []*rawfile.Raw) (replayed, error) {
	var out replayed
	ctx := context.Background()
	type leafOf struct {
		t *octree.Tree
		p *octree.Partition
	}
	var leaves []leafOf
	var buf []object.Object
	for i, q := range queries[:min(len(queries), replayQueries)] {
		out.queries++
		out.results += want[i].n
		for _, ds := range q.Datasets {
			t := trees[ds]
			if t == nil || !t.Built() {
				continue
			}
			ext := q.Range.Expand(t.MaxExtent())
			s := rec.open("octree.Lookup", 0, i)
			parts := t.Lookup(ext)
			rec.close(s, 0)
			for _, p := range parts {
				leaves = append(leaves, leafOf{t, p})
				leave := rec.enter("octree.ReadPartitionCtx", i)
				objs, err := t.ReadPartitionCtx(ctx, p)
				leave()
				if err != nil {
					return out, fmt.Errorf("replay read partition: %w", err)
				}
				out.objects += len(objs)
				leave = rec.enter("pagefile.ReadRunsIntoCtx", i)
				buf, err = t.File().ReadRunsIntoCtx(ctx, buf[:0], p.Runs())
				leave()
				if err != nil {
					return out, fmt.Errorf("replay read runs: %w", err)
				}
				for _, r := range p.Runs() {
					page, err := t.File().Device().ReadRunCtx(ctx, t.File().ID(), r.Start, r.Count)
					if err != nil {
						return out, fmt.Errorf("replay fetch: %w", err)
					}
					s := rec.open("object.DecodePage", 0, i)
					for k := int64(0); k < r.Count; k++ {
						if _, err := object.DecodePage(page[k*simdisk.PageSize : (k+1)*simdisk.PageSize]); err != nil {
							return out, fmt.Errorf("replay decode: %w", err)
						}
					}
					rec.close(s, r.Count*simdisk.PageSize)
					out.pages += int(r.Count)
				}
			}
		}
	}
	out.leaves = len(leaves)
	out.decode, _ = rec.selfTime("object.DecodePage")

	// Allocations per leaf read, counted apart from the spans (recording
	// grows the span slice).
	u0 := snapshot()
	for _, l := range leaves {
		if _, err := l.t.ReadPartitionCtx(ctx, l.p); err != nil {
			return out, fmt.Errorf("replay read partition: %w", err)
		}
	}
	out.leafAllocs = ratio(float64(since(u0).mallocs), float64(len(leaves)))

	for _, raw := range scanned {
		leave := rec.enter("rawfile.ScanCtx", -1)
		err := raw.ScanCtx(ctx, func(object.Object) error { return nil })
		leave()
		if err != nil {
			return out, fmt.Errorf("replay scan: %w", err)
		}
	}
	return out, nil
}
