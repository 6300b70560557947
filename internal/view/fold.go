package view

// MergeSorted merges two nondecreasing columns into one — the step both
// consumers' folds share (a sorted timestamp column absorbing a sorted
// delta). The result may alias a.
func MergeSorted(a, b []int64) []int64 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]int64(nil), b...)
	}
	// Common fast path: the delta is entirely newer than the state.
	if a[len(a)-1] <= b[0] {
		return append(a, b...)
	}
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
