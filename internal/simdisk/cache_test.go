package simdisk

import (
	"math/rand"
	"testing"
)

func k(f, p int) pageKey { return pageKey{FileID(f), int64(p)} }

func TestLRUInsertContains(t *testing.T) {
	c := newLRUCache(2)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	if !c.Contains(k(1, 0)) || !c.Contains(k(1, 1)) {
		t.Fatal("inserted keys missing")
	}
	if c.Contains(k(1, 2)) {
		t.Fatal("phantom key present")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRUCache(2)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	c.Insert(k(1, 2)) // evicts 0
	if c.Contains(k(1, 0)) {
		t.Fatal("LRU victim still present")
	}
	// Touch 1 so 2 becomes LRU.
	if !c.Contains(k(1, 1)) {
		t.Fatal("key 1 missing")
	}
	c.Insert(k(1, 3)) // evicts 2
	if c.Contains(k(1, 2)) {
		t.Fatal("key 2 should have been evicted")
	}
	if !c.Contains(k(1, 1)) || !c.Contains(k(1, 3)) {
		t.Fatal("wrong survivors")
	}
}

func TestLRUReinsertMovesToFront(t *testing.T) {
	c := newLRUCache(2)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	c.Insert(k(1, 0)) // refresh 0; 1 is now LRU
	c.Insert(k(1, 2)) // evicts 1
	if c.Contains(k(1, 1)) {
		t.Fatal("key 1 should have been evicted")
	}
	if !c.Contains(k(1, 0)) {
		t.Fatal("refreshed key evicted")
	}
}

// TestLRUInsertAtCapacityAllocatesNothing checks that a full cache reuses
// the evicted node for the inserted key.
func TestLRUInsertAtCapacityAllocatesNothing(t *testing.T) {
	const capacity = 64
	c := newLRUCache(capacity)
	for i := 0; i < capacity; i++ {
		c.Insert(k(1, i))
	}
	next := capacity
	allocs := testing.AllocsPerRun(1000, func() {
		c.Insert(k(1, next))
		next++
	})
	if allocs != 0 {
		t.Fatalf("Insert at capacity: %v allocations, want 0", allocs)
	}
	if c.Len() != capacity || !c.Contains(k(1, next-1)) || c.Contains(k(1, next-capacity-1)) {
		t.Fatalf("after the inserts: len %d, newest present %v, oldest evicted %v",
			c.Len(), c.Contains(k(1, next-1)), !c.Contains(k(1, next-capacity-1)))
	}
}

func TestLRURemoveAndRemoveFile(t *testing.T) {
	c := newLRUCache(10)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	c.Insert(k(2, 0))
	c.Remove(k(1, 0))
	if c.Contains(k(1, 0)) {
		t.Fatal("removed key present")
	}
	c.RemoveFile(FileID(1))
	if c.Contains(k(1, 1)) {
		t.Fatal("file pages not removed")
	}
	if !c.Contains(k(2, 0)) {
		t.Fatal("unrelated file page removed")
	}
	c.Remove(k(9, 9)) // no-op must not panic
}

func TestLRUZeroCapacityDisables(t *testing.T) {
	c := newLRUCache(0)
	c.Insert(k(1, 0))
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored a key")
	}
}

func TestLRUClear(t *testing.T) {
	c := newLRUCache(4)
	for i := 0; i < 4; i++ {
		c.Insert(k(1, i))
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	// Cache still usable after clear.
	c.Insert(k(1, 0))
	if !c.Contains(k(1, 0)) {
		t.Fatal("insert after clear failed")
	}
}

// Property: cache never exceeds capacity and the most recently inserted key
// is always present (capacity >= 1).
func TestLRUCapacityInvariantProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cap := 1 + r.Intn(8)
		c := newLRUCache(cap)
		for op := 0; op < 500; op++ {
			key := k(r.Intn(3), r.Intn(20))
			switch r.Intn(4) {
			case 0, 1:
				c.Insert(key)
				if !c.Contains(key) {
					t.Fatalf("just-inserted key absent (cap=%d)", cap)
				}
			case 2:
				c.Contains(key)
			case 3:
				c.Remove(key)
			}
			if c.Len() > cap {
				t.Fatalf("cache size %d exceeds capacity %d", c.Len(), cap)
			}
		}
	}
}

// Property: the linked list and the map stay consistent — walking the list
// from head visits exactly the mapped entries.
func TestLRUListMapConsistencyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := newLRUCache(6)
	for op := 0; op < 2000; op++ {
		key := k(r.Intn(2), r.Intn(12))
		switch r.Intn(3) {
		case 0:
			c.Insert(key)
		case 1:
			c.Contains(key)
		case 2:
			c.Remove(key)
		}
		seen := 0
		for n := c.head; n != nil; n = n.next {
			if _, ok := c.entries[n.key]; !ok {
				t.Fatal("list node missing from map")
			}
			seen++
			if seen > len(c.entries) {
				t.Fatal("list longer than map (cycle?)")
			}
		}
		if seen != len(c.entries) {
			t.Fatalf("list has %d nodes, map has %d", seen, len(c.entries))
		}
	}
}
