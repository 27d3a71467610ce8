package object

import (
	"bytes"
	"math/rand"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/simdisk"
)

// FuzzDecodePage checks that arbitrary page bytes never panic the decoder,
// that accepted pages re-encode consistently, and that the filtered decoder
// agrees with DecodePage followed by Intersects for a fuzzer-chosen box: the
// same objects in the same order on accepted pages, the same error on
// rejected ones.
func FuzzDecodePage(f *testing.F) {
	// Seed corpus: a valid page, an empty page, truncated and corrupted
	// variants, then pages with objects inside, outside and on the border
	// of the box.
	valid, err := EncodePage([]Object{{ID: 1, Dataset: 2}})
	if err != nil {
		f.Fatal(err)
	}
	unit := geom.UnitBox()
	add := func(page []byte, q geom.Box) {
		f.Add(page, q.Min.X, q.Min.Y, q.Min.Z, q.Max.X, q.Max.Y, q.Max.Z)
	}
	add(valid, unit)
	empty, err := EncodePage(nil)
	if err != nil {
		f.Fatal(err)
	}
	add(empty, unit)
	add([]byte{}, unit)
	add(make([]byte, simdisk.PageSize), unit)
	corrupted := append([]byte(nil), valid...)
	corrupted[100] ^= 0xFF
	add(corrupted, unit)
	r := rand.New(rand.NewSource(6))
	objs := make([]Object, PageCapacity)
	for i := range objs {
		objs[i] = randObject(r)
	}
	objs[0] = Object{ID: 7, Center: geom.V(2, 0.5, 0.5), HalfExtent: geom.V(1, 0, 0)} // touches a face
	full, err := EncodePage(objs)
	if err != nil {
		f.Fatal(err)
	}
	add(full, unit)
	add(full, geom.Cube(geom.V(0, 0, 0), 100))
	add(full, geom.Box{Min: geom.V(1, 2, 3), Max: geom.V(-1, -2, -3)}) // inverted

	f.Fuzz(func(t *testing.T, data []byte, minX, minY, minZ, maxX, maxY, maxZ float64) {
		q := geom.Box{Min: geom.V(minX, minY, minZ), Max: geom.V(maxX, maxY, maxZ)}
		prefix := []Object{{ID: 99}}
		hits, hitErr := AppendPageIntersecting(prefix, data, q)
		objs, err := DecodePage(data)
		if err != nil {
			if hitErr == nil || hitErr.Error() != err.Error() {
				t.Fatalf("filtered decoder error %v, DecodePage error %v", hitErr, err)
			}
			if len(hits) != len(prefix) {
				t.Fatalf("rejected page appended %d records", len(hits)-len(prefix))
			}
			return // rejected input is fine; panics are not
		}
		if hitErr != nil {
			t.Fatalf("filtered decoder rejected a page DecodePage accepts: %v", hitErr)
		}
		var want []Object
		for _, o := range objs {
			if o.Intersects(q) {
				want = append(want, o)
			}
			if o.Validate() == nil && o.Intersects(q) != o.Box().Intersects(q) {
				t.Fatalf("Intersects disagrees with Box().Intersects for %+v and %v", o, q)
			}
		}
		if hits[0] != prefix[0] || !sameRecords(hits[1:], want) {
			t.Fatalf("filtered decoder returned %d objects, DecodePage+Intersects %d (or they differ)",
				len(hits)-1, len(want))
		}
		// Accepted pages must round-trip.
		page, err := EncodePage(objs)
		if err != nil {
			t.Fatalf("decoded page failed to re-encode: %v", err)
		}
		again, err := DecodePage(page)
		if err != nil {
			t.Fatalf("re-encoded page failed to decode: %v", err)
		}
		if len(again) != len(objs) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(objs))
		}
	})
}

// sameRecords reports whether a and b encode to the same bytes, record by
// record (bit-exact, so NaN payloads and signed zeros count).
func sameRecords(a, b []Object) bool {
	if len(a) != len(b) {
		return false
	}
	ra, rb := make([]byte, RecordSize), make([]byte, RecordSize)
	for i := range a {
		EncodeRecord(ra, a[i])
		EncodeRecord(rb, b[i])
		if !bytes.Equal(ra, rb) {
			return false
		}
	}
	return true
}

// FuzzDecodeRecord checks the fixed-width record decoder tolerates any
// 64-byte input.
func FuzzDecodeRecord(f *testing.F) {
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, Object{ID: 42, Dataset: 7})
	f.Add(buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < RecordSize {
			return
		}
		o := DecodeRecord(data[:RecordSize])
		out := make([]byte, RecordSize)
		EncodeRecord(out, o)
		// Re-decoding the re-encoding must be stable.
		if got := DecodeRecord(out); got.ID != o.ID || got.Dataset != o.Dataset {
			t.Fatal("record round trip unstable")
		}
	})
}
