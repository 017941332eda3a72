package prob

import "math"

// ReceiptModel computes the receipt probability of a frame from the wireless
// signal-strength model, the basis of the REAR protocol (Sec. VII-B): "the
// receipt probability is computed by using the relationship between packet
// loss rate and received signal strength", with the loss composed of path
// loss and (log-normally distributed) shadowing/diffraction loss.
//
// Received power in dBm at distance d:
//
//	Prx(d) = TxPowerDBm − PL(d) + X,  X ~ N(0, ShadowSigmaDB²)
//	PL(d)  = RefLossDB + 10·PathLossExp·log10(d/RefDist)
//
// A frame is decodable when Prx exceeds RxThreshDBm, so
//
//	P(receipt | d) = Q((RxThreshDBm − meanPrx(d)) / ShadowSigmaDB)
type ReceiptModel struct {
	TxPowerDBm    float64 // transmit power, e.g. 20 dBm
	RefLossDB     float64 // path loss at the reference distance, e.g. 46.7 dB
	RefDist       float64 // reference distance in meters, e.g. 1 m
	PathLossExp   float64 // path loss exponent, 2 (free space) to 4 (urban)
	ShadowSigmaDB float64 // shadowing standard deviation in dB
	RxThreshDBm   float64 // receiver sensitivity
}

// DefaultReceiptModel returns parameters tuned so the mean decodable range
// is roughly 250 m, the nominal DSRC figure used throughout the repo.
func DefaultReceiptModel() ReceiptModel {
	return ReceiptModel{
		TxPowerDBm:    20,
		RefLossDB:     46.7,
		RefDist:       1,
		PathLossExp:   2.8,
		ShadowSigmaDB: 4,
		RxThreshDBm:   -94,
	}
}

// MeanRxPower returns the mean received power in dBm at distance d.
func (m ReceiptModel) MeanRxPower(d float64) float64 {
	if d < m.RefDist {
		d = m.RefDist
	}
	pl := m.RefLossDB + 10*m.PathLossExp*math.Log10(d/m.RefDist)
	return m.TxPowerDBm - pl
}

// Prob returns the receipt probability at distance d.
func (m ReceiptModel) Prob(d float64) float64 {
	if d <= 0 {
		return 1
	}
	mean := m.MeanRxPower(d)
	if m.ShadowSigmaDB <= 0 {
		if mean >= m.RxThreshDBm {
			return 1
		}
		return 0
	}
	z := (m.RxThreshDBm - mean) / m.ShadowSigmaDB
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// ProbFromRSSI returns the receipt probability estimated from a measured
// RSSI sample instead of a distance, which is how REAR nodes estimate
// next-hop quality from overheard beacons.
func (m ReceiptModel) ProbFromRSSI(rssiDBm float64) float64 {
	if m.ShadowSigmaDB <= 0 {
		if rssiDBm >= m.RxThreshDBm {
			return 1
		}
		return 0
	}
	z := (m.RxThreshDBm - rssiDBm) / m.ShadowSigmaDB
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// MedianRange returns the distance at which the receipt probability is 0.5,
// found by bisection; useful for calibrating scenarios.
func (m ReceiptModel) MedianRange() float64 {
	lo, hi := m.RefDist, 10000.0
	if m.Prob(hi) > 0.5 {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if m.Prob(mid) > 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
