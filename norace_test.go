//go:build !race

package geckoftl_test

const raceEnabled = false
