//go:build !amd64

package backend

// There is no vector draw kernel off amd64: expDraws draws with
// expDraw4 alone.
const vectorDraws = false

func expDrawsVector(u []float64) int { return 0 }
