package entropy_test

import (
	"fmt"
	"testing"

	"iustitia/internal/corpus"
	"iustitia/internal/entropy"
)

var benchSink []float64

// BenchmarkVectorAt times exact entropy-vector extraction at the serve
// shape: the CART feature set φ′_CART = {1, 3, 4, 5} over corpus payloads
// of each class, at the paper's smallest buffer (b = 32) and at b = 4096,
// where the buffered gateway spends most of its CPU in this call.
func BenchmarkVectorAt(b *testing.B) {
	widths := []int{1, 3, 4, 5}
	for _, size := range []int{32, 4096} {
		for _, class := range []corpus.Class{corpus.Text, corpus.Binary, corpus.Encrypted} {
			f, err := corpus.NewGenerator(int64(size)).File(class, size)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("cart/%s/b%d", class, size), func(b *testing.B) {
				b.SetBytes(int64(len(f.Data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					vec, err := entropy.VectorAt(f.Data, widths)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = vec
				}
			})
		}
	}
}
