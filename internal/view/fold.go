package view

// MergeSorted merges two nondecreasing columns into one — the step both
// consumers' folds share (a sorted timestamp column absorbing a sorted
// delta). It merges in place from the back, so only the entries of a
// later than b[0] move: a delta at the newest end of a long column costs
// the delta, not the column. a is consumed (the result reuses its
// storage); b is left as it is.
func MergeSorted(a, b []int64) []int64 {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...)
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k], i = a[i], i-1
		} else {
			a[k], j = b[j], j-1
		}
	}
	return a
}
