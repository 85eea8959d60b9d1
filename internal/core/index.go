package core

// The first-stage fast path: a level-ordered index over the active mature
// bins. Best Fit wants the highest-level bin that m-fits the replica, so
// the active bins are bucketed by quantized level; a probe walks the
// buckets from the highest level down and can stop at the first bucket
// that yields a candidate, because every bin in a lower bucket has a
// strictly lower level. Each bin additionally caches its exact level and
// its usable slack 1 − level − reserve (both refreshed by refreshBin on
// every mutation of the hosting server), so a probe rejects bins that
// cannot possibly m-fit without touching the server at all.
//
// The index is repaired on the same transitions that maintain the active
// list — refreshBin after placements and departures, maturing, retiring —
// and holds exactly the bins of CubeFit.active. The reference linear scan
// (bestMFitScan) remains as a test oracle; the parity property test
// asserts both produce byte-identical placements.

// levelBuckets is the number of quantized level buckets. Levels live in
// [0, 1], so each bucket spans 1/levelBuckets of load; 64 keeps buckets
// small (a handful of bins each at experiment scale) while the top-down
// walk over empty buckets stays negligible.
const levelBuckets = 64

// levelBucket quantizes a server level into a bucket index. It is
// monotone, so bins in a higher bucket always have strictly higher levels
// than bins in any lower bucket; levels at or above 1 (possible within
// CapacityEps) clamp into the top bucket.
func levelBucket(level float64) int {
	q := int(level * levelBuckets)
	if q < 0 {
		q = 0
	}
	if q >= levelBuckets {
		q = levelBuckets - 1
	}
	return q
}

// levelIndex buckets the active mature bins by quantized level. Bins track
// their own position (bin.bucket, bin.bucketPos) so removal is O(1) via
// swap-remove, mirroring how CubeFit.active tracks activeIdx.
type levelIndex struct {
	buckets [levelBuckets]levelBucketState
}

// levelBucketState is one quantized-level bucket plus the pruning bounds
// the first stage uses to skip it wholesale. slackUB bounds the maximum
// usable slack 1 − level − reserve of the bucket's bins and freeUB the
// maximum free capacity 1 − level; both are monotone upper bounds —
// raised whenever a bin enters or refreshes with a larger value, never
// lowered on removal or shrink — so staleness can only cost a wasted
// walk, never a missed candidate. A full bucket walk re-tightens them to
// the exact maxima (see bestMFitIndexed), and emptying the bucket resets
// them to zero.
type levelBucketState struct {
	bins    []*bin
	slackUB float64
	freeUB  float64
}

// raise lifts the bucket bounds to cover the bin's current slack and free
// capacity.
//
//cubefit:hotpath
func (bk *levelBucketState) raise(b *bin) {
	if b.slack > bk.slackUB {
		bk.slackUB = b.slack
	}
	if free := 1 - b.level; free > bk.freeUB {
		bk.freeUB = free
	}
}

// insert adds an active bin under its current cached level.
//
//cubefit:hotpath
func (ix *levelIndex) insert(b *bin) {
	q := levelBucket(b.level)
	bk := &ix.buckets[q]
	b.bucket = q
	b.bucketPos = len(bk.bins)
	//cubefit:vet-allow hotpath -- bucket growth is amortized: remove swap-shrinks without releasing capacity, so steady-state churn reuses it
	bk.bins = append(bk.bins, b)
	bk.raise(b)
}

// remove takes the bin out of its bucket (no-op if not indexed). The
// bounds stay put — possibly stale-high — except when the bucket empties,
// which resets them so long-empty buckets are skipped outright.
//
//cubefit:hotpath
func (ix *levelIndex) remove(b *bin) {
	if b.bucket < 0 {
		return
	}
	bk := &ix.buckets[b.bucket]
	last := len(bk.bins) - 1
	i := b.bucketPos
	bk.bins[i] = bk.bins[last]
	bk.bins[i].bucketPos = i
	bk.bins = bk.bins[:last]
	if last == 0 {
		bk.slackUB = 0
		bk.freeUB = 0
	}
	b.bucket = -1
	b.bucketPos = -1
}

// update repositions the bin after a level change, touching the bucket
// slices only when the quantized level actually moved; either way the
// target bucket's bounds are raised to cover the refreshed slack (a bin
// whose slack grew in place — a departure — must widen the bounds or the
// pruning would skip its bucket incorrectly).
//
//cubefit:hotpath
func (ix *levelIndex) update(b *bin) {
	if b.bucket == levelBucket(b.level) {
		ix.buckets[b.bucket].raise(b)
		return
	}
	ix.remove(b)
	ix.insert(b)
}
