package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randPoints returns n deterministic pseudo-random points inside box.
func randPoints(rng *rand.Rand, n int, box BBox) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: box.Min.X + rng.Float64()*box.Width(),
			Y: box.Min.Y + rng.Float64()*box.Height(),
		}
	}
	return pts
}

// bruteWithin is the oracle for radius queries.
func bruteWithin(pts []Point, present []bool, q Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if present != nil && !present[i] {
			continue
		}
		if p.DistanceTo(q) <= r {
			out = append(out, i)
		}
	}
	return out
}

func sortedCopy(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return c
}

func equalIntSets(a, b []int) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridIndexWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := NewBBox(Pt(0, 0), Pt(1, 1))
	pts := randPoints(rng, 300, box)
	g := NewGridIndex(box, len(pts))
	for i, p := range pts {
		g.Insert(i, p)
	}
	for trial := 0; trial < 50; trial++ {
		q := Point{rng.Float64(), rng.Float64()}
		r := rng.Float64() * 0.4
		got := g.Within(q, r, nil)
		want := bruteWithin(pts, nil, q, r)
		if !equalIntSets(got, want) {
			t.Fatalf("trial %d: Within(%v, %v) = %v, want %v", trial, q, r, got, want)
		}
	}
}

func TestGridIndexRemove(t *testing.T) {
	box := NewBBox(Pt(0, 0), Pt(1, 1))
	g := NewGridIndex(box, 16)
	g.Insert(0, Pt(0.1, 0.1))
	g.Insert(1, Pt(0.2, 0.2))
	g.Insert(2, Pt(0.9, 0.9))
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	g.Remove(1)
	if g.Contains(1) {
		t.Error("Contains(1) after Remove")
	}
	got := g.Within(Pt(0, 0), 0.5, nil)
	if !equalIntSets(got, []int{0}) {
		t.Errorf("Within after remove = %v", got)
	}
	g.Remove(1) // idempotent
	g.Remove(99)
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestGridIndexReinsertAfterRemove(t *testing.T) {
	box := NewBBox(Pt(0, 0), Pt(1, 1))
	g := NewGridIndex(box, 4)
	g.Insert(7, Pt(0.5, 0.5))
	g.Remove(7)
	g.Insert(7, Pt(0.9, 0.9))
	got := g.Within(Pt(0.9, 0.9), 0.05, nil)
	if !equalIntSets(got, []int{7}) {
		t.Errorf("Within = %v", got)
	}
}

func TestGridIndexNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := NewBBox(Pt(0, 0), Pt(1, 1))
	pts := randPoints(rng, 200, box)
	g := NewGridIndex(box, 128)
	for i, p := range pts {
		g.Insert(i, p)
	}
	for trial := 0; trial < 100; trial++ {
		q := Point{rng.Float64() * 1.2, rng.Float64() * 1.2}
		id, d, ok := g.Nearest(q)
		if !ok {
			t.Fatal("Nearest returned !ok on non-empty index")
		}
		bestD := -1.0
		for _, p := range pts {
			if dd := p.DistanceTo(q); bestD < 0 || dd < bestD {
				bestD = dd
			}
		}
		if !almostEq(d, bestD) {
			t.Fatalf("trial %d: Nearest dist %v, brute %v (id=%d)", trial, d, bestD, id)
		}
	}
}

func TestGridIndexEmpty(t *testing.T) {
	g := NewGridIndex(NewBBox(Pt(0, 0), Pt(1, 1)), 8)
	if _, _, ok := g.Nearest(Pt(0.5, 0.5)); ok {
		t.Error("Nearest on empty index should be !ok")
	}
	if got := g.Within(Pt(0.5, 0.5), 10, nil); len(got) != 0 {
		t.Errorf("Within on empty index = %v", got)
	}
}

func TestGridIndexClampedOutsidePoints(t *testing.T) {
	// Points outside the declared box must still be stored and findable.
	g := NewGridIndex(NewBBox(Pt(0, 0), Pt(1, 1)), 16)
	g.Insert(0, Pt(5, 5))
	got := g.Within(Pt(5, 5), 0.1, nil)
	if !equalIntSets(got, []int{0}) {
		t.Errorf("outside point not found: %v", got)
	}
}

func TestKDTreeNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := NewBBox(Pt(-1, -1), Pt(1, 1))
	pts := randPoints(rng, 257, box)
	items := make([]KDItem, len(pts))
	for i, p := range pts {
		items[i] = KDItem{ID: i, Pt: p}
	}
	tree := NewKDTree(items)
	if tree.Len() != len(pts) {
		t.Fatalf("Len = %d", tree.Len())
	}
	for trial := 0; trial < 100; trial++ {
		q := Point{rng.Float64()*3 - 1.5, rng.Float64()*3 - 1.5}
		_, d, ok := tree.Nearest(q)
		if !ok {
			t.Fatal("Nearest !ok")
		}
		bestD := -1.0
		for _, p := range pts {
			if dd := p.DistanceTo(q); bestD < 0 || dd < bestD {
				bestD = dd
			}
		}
		if !almostEq(d, bestD) {
			t.Fatalf("trial %d: kd nearest %v, brute %v", trial, d, bestD)
		}
	}
}

func TestKDTreeWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := NewBBox(Pt(0, 0), Pt(1, 1))
	pts := randPoints(rng, 300, box)
	items := make([]KDItem, len(pts))
	for i, p := range pts {
		items[i] = KDItem{ID: i, Pt: p}
	}
	tree := NewKDTree(items)
	for trial := 0; trial < 50; trial++ {
		q := Point{rng.Float64(), rng.Float64()}
		r := rng.Float64() * 0.5
		got := tree.Within(q, r, nil)
		want := bruteWithin(pts, nil, q, r)
		if !equalIntSets(got, want) {
			t.Fatalf("trial %d: kd Within = %v, want %v", trial, got, want)
		}
	}
}

func TestKDTreeKNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := NewBBox(Pt(0, 0), Pt(1, 1))
	pts := randPoints(rng, 100, box)
	items := make([]KDItem, len(pts))
	for i, p := range pts {
		items[i] = KDItem{ID: i, Pt: p}
	}
	tree := NewKDTree(items)
	for trial := 0; trial < 20; trial++ {
		q := Point{rng.Float64(), rng.Float64()}
		k := 1 + rng.Intn(20)
		got := tree.KNearest(q, k)
		if len(got) != k {
			t.Fatalf("KNearest returned %d ids, want %d", len(got), k)
		}
		// Verify the result is sorted near-to-far and matches the brute top-k set.
		for i := 1; i < len(got); i++ {
			if pts[got[i-1]].DistanceTo(q) > pts[got[i]].DistanceTo(q)+1e-12 {
				t.Fatalf("KNearest not ordered at %d", i)
			}
		}
		type cand struct {
			id int
			d  float64
		}
		all := make([]cand, len(pts))
		for i, p := range pts {
			all[i] = cand{i, p.DistanceTo(q)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		if kd, bd := pts[got[k-1]].DistanceTo(q), all[k-1].d; !almostEq(kd, bd) {
			t.Fatalf("k-th distance %v, brute %v", kd, bd)
		}
	}
}

func TestKDTreeEmptyAndDegenerate(t *testing.T) {
	empty := NewKDTree(nil)
	if _, _, ok := empty.Nearest(Pt(0, 0)); ok {
		t.Error("empty tree Nearest should be !ok")
	}
	if got := empty.KNearest(Pt(0, 0), 3); got != nil {
		t.Errorf("empty KNearest = %v", got)
	}
	one := NewKDTree([]KDItem{{ID: 42, Pt: Pt(1, 1)}})
	id, d, ok := one.Nearest(Pt(0, 0))
	if !ok || id != 42 || !almostEq(d, Pt(1, 1).Norm()) {
		t.Errorf("single-point tree: id=%d d=%v ok=%v", id, d, ok)
	}
	// All points identical: still well-formed.
	same := make([]KDItem, 10)
	for i := range same {
		same[i] = KDItem{ID: i, Pt: Pt(0.3, 0.3)}
	}
	dup := NewKDTree(same)
	if got := dup.Within(Pt(0.3, 0.3), 0, nil); len(got) != 10 {
		t.Errorf("duplicate-point Within = %d ids, want 10", len(got))
	}
}

// TestGridIndexDegenerateBoxStaysSmall: collinear points (a zero-height or
// zero-width box) used to get a 1e-9 side and ~31.6M cells for 1,000
// points. The cell count must stay O(targetCells), and queries exact.
func TestGridIndexDegenerateBoxStaysSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, box := range []BBox{
		NewBBox(Pt(0, 5), Pt(1000, 5)),     // horizontal line
		NewBBox(Pt(3, -500), Pt(3, 500)),   // vertical line
		NewBBox(Pt(0, 0), Pt(1000, 1e-12)), // thinner than one square cell
		NewBBox(Pt(7, 7), Pt(7, 7)),        // a single point
	} {
		pts := randPoints(rng, 1000, box)
		g := NewGridIndex(box, len(pts))
		if cells := g.cols * g.rows; cells > 2*len(pts) {
			t.Fatalf("box %v: %d cells for %d points", box, cells, len(pts))
		}
		for i, p := range pts {
			g.Insert(i, p)
		}
		for trial := 0; trial < 30; trial++ {
			q := randPoints(rng, 1, box)[0]
			r := rng.Float64() * 50
			if got, want := g.Within(q, r, nil), bruteWithin(pts, nil, q, r); !equalIntSets(got, want) {
				t.Fatalf("box %v: Within(%v, %v) = %v, want %v", box, q, r, got, want)
			}
		}
	}
}

// TestGridIndexCellSizeUnchangedForProperBoxes pins the square-cell sizing
// for every box at least one cell thick, so engine builds over ordinary
// task spreads keep their grids.
func TestGridIndexCellSizeUnchangedForProperBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		w, h := 1e-3+rng.Float64()*100, 1e-3+rng.Float64()*100
		if math.Min(w, h)*float64(n) < math.Max(w, h) {
			continue
		}
		g := NewGridIndex(NewBBox(Pt(0, 0), Pt(w, h)), n)
		if want := math.Sqrt(w * h / float64(n)); g.cellSize != want {
			t.Fatalf("%v×%v, %d cells: cell size %v, want %v", w, h, n, g.cellSize, want)
		}
	}
}

// FuzzGridIndex checks the grid against a linear scan on arbitrary boxes
// (zero-width, collinear, inverted, huge or non-finite corners), points in
// and around them, and arbitrary query centres and radii. Within must return
// exactly the points the scan accepts under the same squared-distance test,
// and the cell count must stay within the degenerate-box cap, O(targetCells).
// Finite inputs are folded into ±1e150, where squared distances cannot
// overflow: past that the squared test itself, not the index, decides.
func FuzzGridIndex(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 16, []byte{0, 0, 255, 255, 128, 64, 7, 200}, 0.5, 0.5, 0.3)
	f.Add(0.0, 5.0, 1000.0, 5.0, 100, []byte{1, 2, 3, 4, 250, 9}, 500.0, 5.0, 40.0)      // horizontal line
	f.Add(3.0, -500.0, 3.0, 500.0, 100, []byte{9, 8, 7, 6, 5, 4}, 3.0, 0.0, 100.0)       // vertical line
	f.Add(7.0, 7.0, 7.0, 7.0, 10, []byte{1, 1, 2, 2}, 7.0, 7.0, 0.0)                     // a single point
	f.Add(10.0, 10.0, 0.0, 0.0, 50, []byte{0, 255, 255, 0, 128, 128}, 5.0, 5.0, 3.0)     // inverted
	f.Add(0.0, 0.0, 1000.0, 1e-12, 1000, []byte{3, 200, 90, 1, 77, 254}, 10.0, 0.0, 1e9) // thin
	f.Add(-1e150, -1e150, 1e150, 1e150, 64, []byte{0, 0, 255, 255, 17, 240}, 0.0, 0.0, 1e150)
	f.Add(0.0, 0.0, math.Inf(1), 1.0, 8, []byte{0, 0, 9, 9, 200, 100}, 1.0, 0.5, math.Inf(1))
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 float64, cells int, raw []byte, qx, qy, r float64) {
		x0, y0, x1, y1, qx, qy, r = fold(x0), fold(y0), fold(x1), fold(y1), fold(qx), fold(qy), fold(r)
		n := cells % 4096
		box := BBox{Min: Pt(x0, y0), Max: Pt(x1, y1)}
		g := NewGridIndex(box, n)
		if c, limit := g.cols*g.rows, 2*max(n, 1)+2; c < 1 || c > limit {
			t.Fatalf("box %v, %d target cells: %d×%d cells", box, n, g.cols, g.rows)
		}
		// Two bytes per point, spread over the box and a quarter beyond
		// each side, so clamped border points are exercised too.
		var pts []Point
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := float64(raw[i])/255*1.5-0.25, float64(raw[i+1])/255*1.5-0.25
			p := Pt(x0+u*(x1-x0), y0+v*(y1-y0))
			pts = append(pts, p)
			g.Insert(i/2, p)
		}
		q := Pt(qx, qy)
		var want []int
		for i, p := range pts {
			if p.SqDistanceTo(q) <= r*r {
				want = append(want, i)
			}
		}
		if r < 0 {
			want = nil
		}
		if got := g.Within(q, r, nil); !equalIntSets(got, want) {
			t.Fatalf("box %v, %d cells: Within(%v, %v) = %v, want %v", box, n, q, r, got, want)
		}
	})
}

// fold maps a finite v into [-1e150, 1e150], keeping NaN and ±Inf.
func fold(v float64) float64 {
	if math.IsInf(v, 0) || math.Abs(v) <= 1e150 {
		return v
	}
	return math.Mod(v, 1e150)
}
