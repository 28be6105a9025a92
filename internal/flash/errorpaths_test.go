package flash

import (
	"errors"
	"testing"
)

// TestDeviceErrorPaths pins the NAND-constraint error family: the misuses a
// correct FTL never commits, which the device must reject loudly (and
// without mutating state) so that FTL bugs surface as hard failures.
func TestDeviceErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		op   func(d *Device, cfg Config) error
		want error
	}{
		{
			name: "program after program",
			op: func(d *Device, cfg Config) error {
				if _, err := d.WritePage(PPNOf(0, 0, cfg.PagesPerBlock), SpareArea{}, PurposeUserWrite); err != nil {
					t.Fatal(err)
				}
				_, err := d.WritePage(PPNOf(0, 0, cfg.PagesPerBlock), SpareArea{}, PurposeUserWrite)
				return err
			},
			want: ErrPageNotFree,
		},
		{
			name: "non-sequential write",
			op: func(d *Device, cfg Config) error {
				_, err := d.WritePage(PPNOf(0, 3, cfg.PagesPerBlock), SpareArea{}, PurposeUserWrite)
				return err
			},
			want: ErrNonSequentialWrite,
		},
		{
			name: "read unwritten page",
			op: func(d *Device, cfg Config) error {
				return d.ReadPage(PPNOf(0, 0, cfg.PagesPerBlock), PurposeUserRead)
			},
			want: ErrPageNotWritten,
		},
		{
			name: "read past write pointer",
			op: func(d *Device, cfg Config) error {
				if _, err := d.WritePage(PPNOf(0, 0, cfg.PagesPerBlock), SpareArea{}, PurposeUserWrite); err != nil {
					t.Fatal(err)
				}
				return d.ReadPage(PPNOf(0, 1, cfg.PagesPerBlock), PurposeUserRead)
			},
			want: ErrPageNotWritten,
		},
		{
			name: "write out of range",
			op: func(d *Device, cfg Config) error {
				_, err := d.WritePage(PPN(int64(cfg.Blocks)*int64(cfg.PagesPerBlock)), SpareArea{}, PurposeUserWrite)
				return err
			},
			want: ErrOutOfRange,
		},
		{
			name: "erase out of range",
			op: func(d *Device, cfg Config) error {
				return d.EraseBlock(BlockID(cfg.Blocks), PurposeGCErase)
			},
			want: ErrOutOfRange,
		},
		{
			name: "write while powered off",
			op: func(d *Device, cfg Config) error {
				d.PowerFail()
				_, err := d.WritePage(PPNOf(0, 0, cfg.PagesPerBlock), SpareArea{}, PurposeUserWrite)
				return err
			},
			want: ErrPowerFailed,
		},
		{
			name: "read while powered off",
			op: func(d *Device, cfg Config) error {
				d.PowerFail()
				return d.ReadPage(PPNOf(0, 0, cfg.PagesPerBlock), PurposeUserRead)
			},
			want: ErrPowerFailed,
		},
		{
			name: "spare read while powered off",
			op: func(d *Device, cfg Config) error {
				d.PowerFail()
				_, _, err := d.ReadSpare(PPNOf(0, 0, cfg.PagesPerBlock), PurposeRecovery)
				return err
			},
			want: ErrPowerFailed,
		},
		{
			name: "erase while powered off",
			op: func(d *Device, cfg Config) error {
				d.PowerFail()
				return d.EraseBlock(0, PurposeGCErase)
			},
			want: ErrPowerFailed,
		},
		{
			name: "trim note while powered off",
			op: func(d *Device, cfg Config) error {
				p, err := d.Partition(0, cfg.Blocks)
				if err != nil {
					return err
				}
				d.PowerFail()
				return p.NoteTrim(PPNOf(0, 0, cfg.PagesPerBlock), PurposeTrim)
			},
			want: ErrPowerFailed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(4)
			d := MustNewDevice(cfg)
			if err := tc.op(d, cfg); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
