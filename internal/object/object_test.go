package object

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/simdisk"
)

func randObject(r *rand.Rand) Object {
	return Object{
		ID:      r.Uint64(),
		Dataset: DatasetID(r.Uint32()),
		Center: geom.V(
			r.Float64()*200-100, r.Float64()*200-100, r.Float64()*200-100),
		HalfExtent: geom.V(r.Float64(), r.Float64(), r.Float64()),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, RecordSize)
	for i := 0; i < 1000; i++ {
		o := randObject(r)
		EncodeRecord(buf, o)
		got := DecodeRecord(buf)
		if got != o {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, o)
		}
	}
}

func TestPageRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, PageCapacity} {
		objs := make([]Object, n)
		for i := range objs {
			objs[i] = randObject(r)
		}
		page, err := EncodePage(objs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(page) != simdisk.PageSize {
			t.Fatalf("n=%d: page size %d", n, len(page))
		}
		got, err := DecodePage(page)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d", n, len(got))
		}
		for i := range objs {
			if got[i] != objs[i] {
				t.Fatalf("n=%d: record %d mismatch", n, i)
			}
		}
	}
}

func TestEncodePageTooMany(t *testing.T) {
	objs := make([]Object, PageCapacity+1)
	if _, err := EncodePage(objs); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodePageErrors(t *testing.T) {
	page, err := EncodePage([]Object{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodePage(page[:100]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short buffer: %v", err)
	}

	bad := append([]byte(nil), page...)
	bad[0] = 0xFF // break magic
	if _, err := DecodePage(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), page...)
	bad[simdisk.PageSize-1] ^= 0xFF // flip payload bit
	if _, err := DecodePage(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corruption: %v", err)
	}

	bad = append([]byte(nil), page...)
	bad[2] = 0xFF // absurd count (and checksum covers payload, not header,
	bad[3] = 0xFF // so the count check fires first)
	if _, err := DecodePage(bad); !errors.Is(err, ErrBadCount) {
		t.Errorf("bad count: %v", err)
	}
}

func TestAppendPageInto(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := []Object{randObject(r)}
	page, err := EncodePage([]Object{randObject(r), randObject(r)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := AppendPageInto(a, page)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if _, err := AppendPageInto(nil, make([]byte, simdisk.PageSize)); err == nil {
		t.Error("decoding zero page succeeded")
	}
}

func TestObjectBoxAndIntersects(t *testing.T) {
	o := Object{Center: geom.V(1, 1, 1), HalfExtent: geom.V(0.5, 0.5, 0.5)}
	b := o.Box()
	if b.Min != geom.V(0.5, 0.5, 0.5) || b.Max != geom.V(1.5, 1.5, 1.5) {
		t.Fatalf("Box = %v", b)
	}
	if !o.Intersects(geom.NewBox(geom.V(1.4, 1.4, 1.4), geom.V(2, 2, 2))) {
		t.Error("Intersects = false for overlapping query")
	}
	if o.Intersects(geom.NewBox(geom.V(2, 2, 2), geom.V(3, 3, 3))) {
		t.Error("Intersects = true for disjoint query")
	}
}

// TestAppendPageIntersectingBorders pins the closed-box semantics of the
// filtered decoder on the cases a fuzzer rarely hits exactly: boxes that
// only touch at a face, an edge or a corner, and zero extents on either
// side.
func TestAppendPageIntersectingBorders(t *testing.T) {
	box := func(minX, minY, minZ, maxX, maxY, maxZ float64) geom.Box {
		return geom.NewBox(geom.V(minX, minY, minZ), geom.V(maxX, maxY, maxZ))
	}
	cube := Object{ID: 1, Dataset: 3, Center: geom.V(0.5, 0.5, 0.5), HalfExtent: geom.V(0.1, 0.1, 0.1)} // [0.4, 0.6]^3
	point := Object{ID: 2, Dataset: 3, Center: geom.V(0.5, 0.5, 0.5)}
	flat := Object{ID: 3, Dataset: 3, Center: geom.V(0.5, 0.5, 0.5), HalfExtent: geom.V(0.1, 0, 0.1)}
	cases := []struct {
		name string
		o    Object
		q    geom.Box
		want bool
	}{
		{"face", cube, box(0.6, 0.4, 0.4, 0.7, 0.6, 0.6), true},
		{"face below", cube, box(0.3, 0.4, 0.4, 0.4, 0.6, 0.6), true},
		{"edge", cube, box(0.6, 0.6, 0, 0.7, 0.7, 1), true},
		{"corner", cube, box(0.6, 0.6, 0.6, 0.7, 0.7, 0.7), true},
		{"just past the face", cube, box(math.Nextafter(0.6, 1), 0.4, 0.4, 0.7, 0.6, 0.6), false},
		{"just past the corner", cube, box(0.6, 0.6, math.Nextafter(0.6, 1), 0.7, 0.7, 0.7), false},
		{"point object on a face", point, box(0.5, 0, 0, 1, 1, 1), true},
		{"point object outside", point, box(math.Nextafter(0.5, 1), 0, 0, 1, 1, 1), false},
		{"point query inside", cube, box(0.45, 0.45, 0.45, 0.45, 0.45, 0.45), true},
		{"point query at the corner", cube, box(0.4, 0.4, 0.4, 0.4, 0.4, 0.4), true},
		{"point query on a point object", point, box(0.5, 0.5, 0.5, 0.5, 0.5, 0.5), true},
		{"flat object touched by its plane", flat, box(0, 0.5, 0, 1, 0.5, 1), true},
		{"flat object beside its plane", flat, box(0, math.Nextafter(0.5, 1), 0, 1, 1, 1), false},
	}
	for _, c := range cases {
		if got := c.o.Box().Intersects(c.q); got != c.want {
			t.Fatalf("%s: Box().Intersects = %v, want %v", c.name, got, c.want)
		}
		if got := c.o.Intersects(c.q); got != c.want {
			t.Errorf("%s: Intersects = %v, want %v", c.name, got, c.want)
		}
		far := Object{ID: 9, Center: geom.V(50, 50, 50), HalfExtent: geom.V(1, 1, 1)}
		page, err := EncodePage([]Object{far, c.o, far})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPageIntersecting(nil, page, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case c.want && (len(got) != 1 || got[0] != c.o):
			t.Errorf("%s: filtered decode = %+v, want [%+v]", c.name, got, c.o)
		case !c.want && len(got) != 0:
			t.Errorf("%s: filtered decode = %+v, want none", c.name, got)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Object{Center: geom.V(0, 0, 0), HalfExtent: geom.V(1, 1, 1)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid object rejected: %v", err)
	}
	bad := Object{Center: geom.V(math.NaN(), 0, 0)}
	if err := bad.Validate(); !errors.Is(err, ErrNonFiniteVec) {
		t.Errorf("NaN center: %v", err)
	}
	neg := Object{HalfExtent: geom.V(-1, 0, 0)}
	if err := neg.Validate(); err == nil {
		t.Error("negative half-extent accepted")
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {PageCapacity, 1}, {PageCapacity + 1, 2},
		{3 * PageCapacity, 3}, {3*PageCapacity + 1, 4},
	}
	for _, c := range cases {
		if got := PagesFor(c.n); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPageCapacityIsSane(t *testing.T) {
	// 4096-byte pages with 64-byte records and a 16-byte header hold 63.
	if PageCapacity != 63 {
		t.Fatalf("PageCapacity = %d, want 63", PageCapacity)
	}
}

// Property: record encode/decode round-trips for arbitrary bit patterns
// (including NaN payloads, which must survive byte-exactly as structs are
// compared by bits here via Float64bits).
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(id uint64, ds uint32, cx, cy, cz, hx, hy, hz float64) bool {
		o := Object{
			ID: id, Dataset: DatasetID(ds),
			Center:     geom.V(cx, cy, cz),
			HalfExtent: geom.V(hx, hy, hz),
		}
		buf := make([]byte, RecordSize)
		EncodeRecord(buf, o)
		got := DecodeRecord(buf)
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return got.ID == o.ID && got.Dataset == o.Dataset &&
			same(got.Center.X, o.Center.X) && same(got.Center.Y, o.Center.Y) &&
			same(got.Center.Z, o.Center.Z) &&
			same(got.HalfExtent.X, o.HalfExtent.X) &&
			same(got.HalfExtent.Y, o.HalfExtent.Y) &&
			same(got.HalfExtent.Z, o.HalfExtent.Z)
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: any single-bit corruption of the payload is detected.
func TestChecksumDetectsBitFlipsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	objs := []Object{randObject(r), randObject(r), randObject(r)}
	page, err := EncodePage(objs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), page...)
		// Flip a random payload bit (past the header).
		byteIdx := 16 + r.Intn(simdisk.PageSize-16)
		bad[byteIdx] ^= 1 << uint(r.Intn(8))
		if _, err := DecodePage(bad); err == nil {
			t.Fatalf("bit flip at byte %d undetected", byteIdx)
		}
	}
}
