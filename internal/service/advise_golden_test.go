package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestAdviseGolden pins every /v1/advise body byte for byte, as SHA-256
// digests, over the three built-in profiles, five loads (the last one
// where the rule-of-thumb split is infeasible) and four host counts; at
// one host the body is the 400 refusal.
func TestAdviseGolden(t *testing.T) {
	want := map[string]string{
		"profile=psc-c90&load=0.3&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-c90&load=0.3&hosts=2":         "b5a45a265a2b5576fcf852930bf0b45511ddac553ade78934d504f40803adbe6",
		"profile=psc-c90&load=0.3&hosts=4":         "347bc19266543bbbdafd4c72f1c335578eb70ee635409bb1ec5f49096d10d517",
		"profile=psc-c90&load=0.3&hosts=8":         "b2bf2ee10543067bfb8a90e14f5f3971453cf85c91632d6115727670ece277f3",
		"profile=psc-c90&load=0.5&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-c90&load=0.5&hosts=2":         "e946c8c434839cec6be901ff5d0a2395ceb25dc896a6df6311a68ff44f0a3e40",
		"profile=psc-c90&load=0.5&hosts=4":         "4eec74663e27167716beff3bae598f0f85e30be721d071dfa3d00de1dfcc3c08",
		"profile=psc-c90&load=0.5&hosts=8":         "1d864bf957dc311cd4ba6c295c264e7ed94c987e665bb7faf351cd32d7f9c0d0",
		"profile=psc-c90&load=0.7&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-c90&load=0.7&hosts=2":         "be57c7f8e884712728e57a753c9f41273a593eaee0e67f1c431411a0aa83586c",
		"profile=psc-c90&load=0.7&hosts=4":         "28b3600d7fdf269da4637e4a1ebb1ad20204005e7ed6423baca5b2bc3ac65b42",
		"profile=psc-c90&load=0.7&hosts=8":         "b557da841df84987eef9d181e7d4e2202d7d9220f190ccb6f062ad61fe069ede",
		"profile=psc-c90&load=0.9&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-c90&load=0.9&hosts=2":         "db93818217e6ffe13f9d2cbebc5c2f2990c94afa43fe1751f0f1f320544c952f",
		"profile=psc-c90&load=0.9&hosts=4":         "1a4bb74b9474fe28ee0460e383c016277c1f268fff25359755d8579f6dcbf6b8",
		"profile=psc-c90&load=0.9&hosts=8":         "fb23350ddda31a9c56eb0e6e7e4717cb09309e3dfa8db6082f8aea7a1333554e",
		"profile=psc-c90&load=0.999999999&hosts=1": "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-c90&load=0.999999999&hosts=2": "4026ed3b5471f4cd26045fe5474a53d3cbff50786e8a506d7d98460b358cffa6",
		"profile=psc-c90&load=0.999999999&hosts=4": "a32a9df7bf8745968d330cdd2d3c6da0168725354e9183ae40cb657719e10f3c",
		"profile=psc-c90&load=0.999999999&hosts=8": "360741d991f585f15a374e1b4de263e19a84ddf8031ee82a33c9b6eb4eaa47d8",
		"profile=psc-j90&load=0.3&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-j90&load=0.3&hosts=2":         "35a2287cf06692e323d2e3fd3bbad317de7d2c17afc6228a90064db7bab73dfa",
		"profile=psc-j90&load=0.3&hosts=4":         "ead90677c9005d895005e80552c499a75d7841a4abfb90027faaaba9d4b89543",
		"profile=psc-j90&load=0.3&hosts=8":         "43b0d6e4b4233aa636ebd2f2abe3f3b7641411481116c647c2504565238731a4",
		"profile=psc-j90&load=0.5&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-j90&load=0.5&hosts=2":         "a9c07a58db200e9e11c65e5dff4cec83ef1a74b07b20c36f644a357d5e4a7ca9",
		"profile=psc-j90&load=0.5&hosts=4":         "c97c15bdaf1145f5817ddc07c36611205b99f19e8ea99e0969840e76fe989380",
		"profile=psc-j90&load=0.5&hosts=8":         "6adf60ce2c852faffb99cbd7a44ff62bbddccda731a7b20e351a29fd2434ea25",
		"profile=psc-j90&load=0.7&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-j90&load=0.7&hosts=2":         "a92c9e743405a3b6702f28b2e79b6a6c0bcfcfa3f2025a6a5b035d5db062145e",
		"profile=psc-j90&load=0.7&hosts=4":         "1d59fa96a50fb4d5605fe4f1df79376129653b691d2f04d6faa80cd89091c165",
		"profile=psc-j90&load=0.7&hosts=8":         "301acc645d95aff4a20078a97cc9354ae7d7814db5217221789871404b4a6212",
		"profile=psc-j90&load=0.9&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-j90&load=0.9&hosts=2":         "35a00d3ba3b16ec57df4541de8e11934014d4ff9eacd92dce84a775f48cfd868",
		"profile=psc-j90&load=0.9&hosts=4":         "230411544a2d85631f355966ce436f77333e27338d12b6f975c565e2f5967018",
		"profile=psc-j90&load=0.9&hosts=8":         "0e19d2a2ebc9b59a43a744c8cea11cd91f4c048685e708399f31d438cc67fef0",
		"profile=psc-j90&load=0.999999999&hosts=1": "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=psc-j90&load=0.999999999&hosts=2": "73889269abaed76f693e0fa006e2009d17e2d5e0a0466c2de78646f5b9124e04",
		"profile=psc-j90&load=0.999999999&hosts=4": "759e498421155ecd43e06994f5a606d1453edb486a03ac36e06cc98308370f76",
		"profile=psc-j90&load=0.999999999&hosts=8": "f52405e5758398a3f153fafcb9d3ffd45c58b24eb69ab403ae167248af40ebc9",
		"profile=ctc-sp2&load=0.3&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=ctc-sp2&load=0.3&hosts=2":         "0098262e854ef7419cb95c0b21576e23bc00fdaea66e465ed8d12b5375219c39",
		"profile=ctc-sp2&load=0.3&hosts=4":         "3a76c8a09ef8c399306ebdb162040e45f67f8fb1999ca68886764da1af3cfb18",
		"profile=ctc-sp2&load=0.3&hosts=8":         "ca9ab12004a2489328c375f951346a40c23d3da93233d15b80a2748af7cd143d",
		"profile=ctc-sp2&load=0.5&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=ctc-sp2&load=0.5&hosts=2":         "e7027eddb1d97f1374306afe79bc75e67236b42f6d1697204e4d8c1594210848",
		"profile=ctc-sp2&load=0.5&hosts=4":         "140baaea6bd704d6113675e6e5673e3f40fb1ea198b135cdb8287d782a460d09",
		"profile=ctc-sp2&load=0.5&hosts=8":         "854b09fe9e087ef39e14ab876c00cc57f48c58ac698b25fafcb8a0846062fc31",
		"profile=ctc-sp2&load=0.7&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=ctc-sp2&load=0.7&hosts=2":         "c75b53c118c9bbd8bb883e56f8933104ae1b112342873a2a233c6828f5f7072b",
		"profile=ctc-sp2&load=0.7&hosts=4":         "08cc0d01df5830640b89516e8448b366a19606f758b924266666cd533fa48bba",
		"profile=ctc-sp2&load=0.7&hosts=8":         "7a6696c4983843cb20d8d2a477400b6522af1b12c9082fdd1ca1c6aa4b980a53",
		"profile=ctc-sp2&load=0.9&hosts=1":         "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=ctc-sp2&load=0.9&hosts=2":         "5efa098236adc24b582b384a6fe8bb36ce6ffd1864434c0b548211e9e38a4218",
		"profile=ctc-sp2&load=0.9&hosts=4":         "d0e561e3bff0287fd8b724a316b0add2f0776ec189d49c15fcdcbc12071e51d5",
		"profile=ctc-sp2&load=0.9&hosts=8":         "2e5e2e9d3726b73004be0dc55c2a0c395af17cf2b555cada4454d86d1866c6d5",
		"profile=ctc-sp2&load=0.999999999&hosts=1": "b8c5e2c4507d742fca82094d266add4ad937bb0800ddbe5fab84311218cd1858",
		"profile=ctc-sp2&load=0.999999999&hosts=2": "b3e417b15fc649edf4635e3e560b14b3b2ec8248fe5045e9e931bf0104c1ccff",
		"profile=ctc-sp2&load=0.999999999&hosts=4": "839c1c4ee0090af7c28e6d274a388e900044aedc8f72fb826b9b1a0e87ef58b0",
		"profile=ctc-sp2&load=0.999999999&hosts=8": "079ec1b0349ba79fae9ee40fb6c5ca84131895141a555f1b92dc29560c6c2f43",
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, profile := range []string{"psc-c90", "psc-j90", "ctc-sp2"} {
		for _, load := range []string{"0.3", "0.5", "0.7", "0.9", "0.999999999"} {
			for _, hosts := range []int{1, 2, 4, 8} {
				q := fmt.Sprintf("profile=%s&load=%s&hosts=%d", profile, load, hosts)
				resp, err := http.Get(ts.URL + "/v1/advise?" + q)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				// SITA needs two hosts: a 1-host request is refused
				// before any design is computed.
				wantStatus := http.StatusOK
				if hosts == 1 {
					wantStatus = http.StatusBadRequest
				}
				if resp.StatusCode != wantStatus {
					t.Fatalf("%s: status %d body %s, want status %d", q, resp.StatusCode, body, wantStatus)
				}
				sum := sha256.Sum256(body)
				if got := hex.EncodeToString(sum[:]); got != want[q] {
					t.Errorf("%s: body digest %s, want %s", q, got, want[q])
				}
			}
		}
	}
}
