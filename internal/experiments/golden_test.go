package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/runner"
)

// simResponsesGolden pins every simulated-model response of seed 1: for each
// task×dataset cell (registry order) and model, the SHA-256 of the cell's
// responses in example order, one per line. The digests were captured
// before the simulators memoized any per-SQL fact, so a cache that changes
// a single response byte fails the test.
var simResponsesGolden = map[string]string{
	"equiv/Join-Order/GPT3.5":     "7c9c2cfa7b25b00bcdc9d78540d37a8192df0e66f3f4b937682744c34c8cf063",
	"equiv/Join-Order/GPT4":       "1385134e083b5865a1eb213d6e7204630b61109a11eeda8794433400ec084090",
	"equiv/Join-Order/Gemini":     "1d314a8f0d1a268be76cf3d64894f749f33579c4dbb903c1372e583c1f03e77c",
	"equiv/Join-Order/Llama3":     "ab60b48f7690946691d1bc99351ee3fd3f5719af06e0e9fe9b212b6657574b29",
	"equiv/Join-Order/MistralAI":  "41524f61da6ab6148f5a5d0cecc2790ac3f3adc4f67f24fefa2f09253d917154",
	"equiv/SDSS/GPT3.5":           "8ffdb0c2834487690319a9e7f8582d400f92d6eac803ab280c7d43a8dd00ac3e",
	"equiv/SDSS/GPT4":             "8b2502e06f0305ade67f32db78b094984e2d5f73f9a12c4437bae3a07e2bcc00",
	"equiv/SDSS/Gemini":           "1231fb40bfa9241228cbe42850f38df70edfa3540e1585052a373c6e718ff230",
	"equiv/SDSS/Llama3":           "f5cf2cb653ef7db9a9802c34360939573f3a83bd8fee7d106b3b736c16ade403",
	"equiv/SDSS/MistralAI":        "e7aa1a6c23e88d082dfddd1b0e198f3a1f3ecffa63f197859e884dbf8c6cdd45",
	"equiv/SQLShare/GPT3.5":       "90fdb3b15fbdb4c4c95539bac0065c7e9517e55159e7be2ad9f27928617d5643",
	"equiv/SQLShare/GPT4":         "6871c8183ae011f0c7ffdff4cb42edee22ad9999a64eb9d2906bb5eb10d4144c",
	"equiv/SQLShare/Gemini":       "4d4ab7de8f16f822620996deb713feea9a9c9488b411b5b80c60763c187d1c98",
	"equiv/SQLShare/Llama3":       "c10eeeb8b3e6ac1373fc394cbe5fbfd6dd5d1ce3397638df12527950bf9cfc03",
	"equiv/SQLShare/MistralAI":    "5a9bdf7813a987d8ee06f005375c7b4d56bd5f66f5a159e72835e82031150bdd",
	"explain/Spider/GPT3.5":       "139a8d1173d40c90d4568b2046d6df7bd2c4e953efc800f8f9d17474e15b5510",
	"explain/Spider/GPT4":         "e8db0198abf088a0ce3250d582955e801922f74825afb3d36d337050035b6dd6",
	"explain/Spider/Gemini":       "88f25e4ebd627bb113a111240a7728e2601db8e38e83c5ac11da4458d4d7c7eb",
	"explain/Spider/Llama3":       "28c6ebe0e8b47e7c120aac0c7f258aa9dcbe014c6e9cc40d462b6d36eb37645c",
	"explain/Spider/MistralAI":    "5e29bdf825c3ad6bd89a9c831fc5ade743b7016824bf2beffdae7c0c6c649629",
	"fill/Join-Order/GPT3.5":      "efaa365607831e356166685a8b3882377acccc827a39d92f2de79b7b0b476d2a",
	"fill/Join-Order/GPT4":        "2c9f333d6c1e9a383bc013b48dcf35b0d37cd87741f4e86765fabe299db3acf7",
	"fill/Join-Order/Gemini":      "2caa88223fd8cbb6f5bfee27b98360e7cf38898313b0ac225583092d622c0d30",
	"fill/Join-Order/Llama3":      "c72df76ced23b2053b4a3124c7a71216cea061a63681bb0a8d79a5a227d24cca",
	"fill/Join-Order/MistralAI":   "6506c1e3cedc1a74ac6c2d8b760663a99318f7aef99a21260b4a53d010317af8",
	"fill/SDSS/GPT3.5":            "0f38ad1231f1dfedc4162e76fa71f6ef16e540250338946518b09f9b14c8b8b5",
	"fill/SDSS/GPT4":              "0e00d0809b47ba8de0520d178c60e7262e10efdd6e6415ff462e67583cc44588",
	"fill/SDSS/Gemini":            "c4e89185a79ede3ea2b59eed4a0e706f659aa3e17f2f7be8299876aea1a09813",
	"fill/SDSS/Llama3":            "28a8ca8e99e337c673bfbc088c492dffec663d53aeae5612fc7a1146d45afad3",
	"fill/SDSS/MistralAI":         "d6fc639b369ff7f32c0edfe5beed3768c9469a7a0022fec9f44f194e4d12db2e",
	"fill/SQLShare/GPT3.5":        "9205a587052381c122e9b6a7866964690adddbc62565a7ff13951d75689916ae",
	"fill/SQLShare/GPT4":          "17e76ff3eac1e5095a23f0cb6e61dc284a01507f838e1bad282adc1bcb96b4bf",
	"fill/SQLShare/Gemini":        "ae32727bb4693a97b1288a902faf385e3b02ccf2d1843ac0d65c1908e8cf19f6",
	"fill/SQLShare/Llama3":        "ec6d1c118a963c4f7aeebcb3d30b194a12f4736e291b88e4f61e9fa47b3f844d",
	"fill/SQLShare/MistralAI":     "4c977729dae5c17ab243226c935635af93109f9199510a66f1361b19ded36648",
	"perf/SDSS/GPT3.5":            "54e194bd91e2931e6cdb23e434f001652f75e58809c00b8e054db63d68224936",
	"perf/SDSS/GPT4":              "56f8c36d07e4eaad73df99fad4e2e31a2141fd8a36f8e8082920382dc7762a3d",
	"perf/SDSS/Gemini":            "358f109c4ae5d75459c30a9b8c9d9d7536adcf5a3b7440331f9435ed8189a227",
	"perf/SDSS/Llama3":            "c5539df629ecc051f381df395d802ff34e3fcf19011baa92c2ad562b99b1a0a4",
	"perf/SDSS/MistralAI":         "2cb8939ebc1b072b456fbb522df55a28b7758cdd657222e748291c23faa82a8a",
	"state/Join-Order/GPT3.5":     "d6b59315741206aeda5770b46b67c6342387f620b84768bb53cf12d0c7c39f9b",
	"state/Join-Order/GPT4":       "c7708fc1140c57faee8f42f71e813ce380f8d577ddd79ca84bef84a1a8674d80",
	"state/Join-Order/Gemini":     "fd3dd35d34b18be56ad6cc54c97ed69ffa04d8cb1b2fe71ac047a5d72b937cd0",
	"state/Join-Order/Llama3":     "5ecce33751bb9ed9d81b78d03c8a0b63617eb2ce41220a52d80508e10126c1c0",
	"state/Join-Order/MistralAI":  "2735a3dc724de8820e8e2d069c7f6d0b4f8c65d538e24d120586bc74fe6f2fa6",
	"state/SDSS/GPT3.5":           "d5935128e398cc82a299527265ee2daf858e83a66ca13a69e456e5951a947e80",
	"state/SDSS/GPT4":             "14cf53cc890f6bbac11e1d3b00794776d110694c8dc61d505668a275b7270950",
	"state/SDSS/Gemini":           "8c1ca4cf0a5f004afe83075eb3a54eb1083f8700c011bd62bcfab4b8294d232b",
	"state/SDSS/Llama3":           "0af5d71608cf16d66c5682cf7151f0ef6244f485e167250334c8c206be3f6684",
	"state/SDSS/MistralAI":        "6489a5a0fb690a36c14eb6dbbff358ecbf60f45bf5896400f3d081c72f07d652",
	"state/SQLShare/GPT3.5":       "a95784a8a66dcbff7a5d87ed4574ca42dec50e678d8bee9aac720392670d553c",
	"state/SQLShare/GPT4":         "ecf53797992743badca46c06d41793825c5152ca25ca41c0b0217401dbda4eea",
	"state/SQLShare/Gemini":       "66c88aec4568003cf1cb989438c92300663bef284e65d9f2687e73f9bcf3cfd6",
	"state/SQLShare/Llama3":       "d0278f2a81d59f296e5c77aeb5d10b1beb13244efa6bbe3d7437f85a934e5769",
	"state/SQLShare/MistralAI":    "0a1e9632615c294011a0c91009070488a563594e335c190024134a448b4a687a",
	"syntax/Join-Order/GPT3.5":    "deef6bfce6d6c58d925c139253a391704f9cf05bb89e1111200f9f1586f20e57",
	"syntax/Join-Order/GPT4":      "d50e9cc5302093a4ca8402d11214c018434a8967ee68f4ac347cfeeab92e710e",
	"syntax/Join-Order/Gemini":    "1576276ec4ed499fb7f613b99cc4d67761c231ce8583eef3b069a9ad6440b839",
	"syntax/Join-Order/Llama3":    "1dcd7ca51a5eaf2ffa2b6ea274c48ff1416114af916aa1f64f55837e8bb4d50a",
	"syntax/Join-Order/MistralAI": "2209346593f3ba142092022988b57c482fc7399bbf8485b7d80237604316e4b4",
	"syntax/SDSS/GPT3.5":          "dfe333e5a2cbc337f9d7cdcfc0258c7a45e2282b6d03fc295b22907eecde6d0e",
	"syntax/SDSS/GPT4":            "1f18e9c8c5d0cc29d8432af9dd95409959ebaad9d2b6296196b919a75eceed79",
	"syntax/SDSS/Gemini":          "3771f83abfa9484d033c40b22814ae528b48c36d3be26596b4d7cbf1a50ec473",
	"syntax/SDSS/Llama3":          "4c7b4209da9f9a1989ddb274ff79d4f438b6d3c8735060849e3317f8047e35b2",
	"syntax/SDSS/MistralAI":       "9cc29377a82a1e59035c0a9dca5815e7d848e6245d096ceb2bf25a8569554443",
	"syntax/SQLShare/GPT3.5":      "fdfecdf1fc36f2483a00dfbc2a9dc39fdbf487be500c856fb541cb082d3ee4de",
	"syntax/SQLShare/GPT4":        "2d47cdad97b7de2337b926e164272bdc883c6119f242135b328d4e68f6be23de",
	"syntax/SQLShare/Gemini":      "b5c27f5880a4aca7d10cc7649591f134d37919cd68ce1a86f1a69744763163fd",
	"syntax/SQLShare/Llama3":      "e5c60255421f310acf09884f69c14bc45c3630140da9313e9f8157bdb9318223",
	"syntax/SQLShare/MistralAI":   "1829dfa119b78e33733254a277757641035ffd5fab17baa1a6227e02d244e6e1",
	"tokens/Join-Order/GPT3.5":    "7b00459f52e04e40cf1dad85836e56417975d56d938e42bc898f734827602431",
	"tokens/Join-Order/GPT4":      "d3253e712f7e5dc829465d828af426ce55cb841254908521b0ad4221d18e9f92",
	"tokens/Join-Order/Gemini":    "e6fd1894e8a8edcca84882fa9ed79fd7c763948027e37de12046536dce9ff833",
	"tokens/Join-Order/Llama3":    "2721c168c4ccfadee407feae3a56c9f263e2b2b25df10f5ecc1a38d8dc781b5b",
	"tokens/Join-Order/MistralAI": "f8260820048d7c9b6f10dabe1f66e20afdd2d8e949dd839581a0018d0b89ea2f",
	"tokens/SDSS/GPT3.5":          "9129b314402989b820e26b135bf4453056a76be62ee661d60413c596fb26e782",
	"tokens/SDSS/GPT4":            "44e9927765f832e5cb57c1efa2f03bd6ad94d528e2f002ae3b0e5422809fcfc1",
	"tokens/SDSS/Gemini":          "2cf3ba9a46b137852a89b89d9e3c3972ef679e5ab61455901f6ce022285168aa",
	"tokens/SDSS/Llama3":          "83b7c8326cf6fee0db2326cc39aad68532057549f69507c9d50d91d413ff8151",
	"tokens/SDSS/MistralAI":       "326e2357b495577e7475665c3be552f8ea0a6f78c4eb0ef703f32d07f05d3435",
	"tokens/SQLShare/GPT3.5":      "76b23ffd9f83caa48fc5787f895adeab04c146307344881b9620ce7edbbc6b8f",
	"tokens/SQLShare/GPT4":        "88b7f07694e86992e4c8e0ab7dbcca057a42b9952468e2bfeb1f3a9757cc2ee0",
	"tokens/SQLShare/Gemini":      "9ba4116da88f856bfecd0de9d1c7bd4f5b315a572799f78752aab39c5daa9154",
	"tokens/SQLShare/Llama3":      "65f2fd381dead2fede3bde05f93f139cb9dc0a567b869c62b01aa4f2430e39a7",
	"tokens/SQLShare/MistralAI":   "65db6c1472a7136df08a456df2e06df9e1768d73c2be660d8142f8e44f1ad10e",
}

// simResponseMetaGolden pins, for the same cells as simResponsesGolden, the
// SHA-256 of each cell×model's responseMeta lines. They were captured with
// the hash channels computed through hash/fnv, which the models' inline
// FNV-1a loop must reproduce bit for bit.
var simResponseMetaGolden = map[string]string{
	"equiv/Join-Order/GPT3.5":     "d6bc9cfd60c57eb9395530ece5da60cd16bd52cb15e34ccec545fc390b9a4132",
	"equiv/Join-Order/GPT4":       "c753d27229e07b558bb603058314d203aef1d09361ad1d16be54937c9c96eab1",
	"equiv/Join-Order/Gemini":     "0099e3a9b5527e1d9cb5874e7b4c2ba709bdfb23c8b0eedec70748a73390e74b",
	"equiv/Join-Order/Llama3":     "f36e84d7aad446ea9021bc313c3e2f2f41bd2bfbc6c63de906757148e350ce04",
	"equiv/Join-Order/MistralAI":  "a233161bcf8fcf6a056cf09b670b0c91d123c0c710d58cdfe475238d14f631ea",
	"equiv/SDSS/GPT3.5":           "549ed95b292a8c8325f676d41fc1e3526d317b64786bbfed6c59b72ff7e13f3c",
	"equiv/SDSS/GPT4":             "071e2bb38d24390f64d69feef508665b5ecb0e54e27ad08de745781da4414678",
	"equiv/SDSS/Gemini":           "0a3dafcf48a0982f9c8c4e75f3c82e9b4fef846186253588352b8be3f27602d6",
	"equiv/SDSS/Llama3":           "d24d82fd28af16b363f7368d6c90e99ae7e273d916f62a72637e87a37a485e29",
	"equiv/SDSS/MistralAI":        "d02d8ccd0609fb8810f3e2e6ad9374be35ae9e2a436adbe10928c583c00aae30",
	"equiv/SQLShare/GPT3.5":       "344b745aced5dadfd2cc73454e003f5520efa23437a8f9fab19ad11effb8bbe3",
	"equiv/SQLShare/GPT4":         "6960a2063269fabf49631cf285a8062ce003ca6569b0e779a79ef911184938fa",
	"equiv/SQLShare/Gemini":       "08844e654eb04f1ca00ae56f42cba024261b493a5e3b61a0cfbb1a234e91b66e",
	"equiv/SQLShare/Llama3":       "8ceff900dcefd05841e4cb736e4878110762198f3ee516ec667669d984d698bd",
	"equiv/SQLShare/MistralAI":    "76fb166e8222cd62a09255bdd488bdab827966f40d8dcdadda1f512328c9ea8e",
	"explain/Spider/GPT3.5":       "e23eebbcda18e2f94fff33b456af7cfb8575a9598093b62b860aa278cdc9ae17",
	"explain/Spider/GPT4":         "74dafe0ee0ba613431a6cb8d7dcb5640631da9c0a2900fe756543cab3dc706a2",
	"explain/Spider/Gemini":       "9df6a2f94d58a45e934d4fcfa363eeb790af7442af3e448ee2dcfd4b92905390",
	"explain/Spider/Llama3":       "cd2137c082901af0d94d96c3baf3af0b39d1e8a24c06bc05ad67723fb93cf326",
	"explain/Spider/MistralAI":    "5fea33bff5db2b4e1469acb3f64a9813e4e564eedfaf51e5d7c096f43ed14b26",
	"fill/Join-Order/GPT3.5":      "cfaa59d9d7c3fd87bf5e5739522c78409f4b491b4065a2ccba80f7d1ee1ab682",
	"fill/Join-Order/GPT4":        "f06183d90804bf7b1c417339ffe497de704fc074d77c1f45e2a1007cb76e002a",
	"fill/Join-Order/Gemini":      "f54332075b8bfdd387f3562fd063210dc6bf5a750680909b16246ab6ddd2d4aa",
	"fill/Join-Order/Llama3":      "93f3a765b3f0724e62a83b4a5ed3e76761cd50044c08f70f988cbed4164f619c",
	"fill/Join-Order/MistralAI":   "2388ed47596cbaeb926127723038604cff9b471d888fbfd2a11326569fefaa56",
	"fill/SDSS/GPT3.5":            "5a8e3d13e3e25fb7f23ddb9975629d97210daf449260eb736c020d488a76a9ca",
	"fill/SDSS/GPT4":              "d48aceec88891842a6863f199eaed036ed56a488b3d1fe089df50e3e6c4729aa",
	"fill/SDSS/Gemini":            "1e8ae914351b44ee0424e9824f9e698d468b24ca5a4010085cabf5baa7cbfb9c",
	"fill/SDSS/Llama3":            "bc6cd7897533bf3602ce14b2fd0c033863147ca4714a217824bffc2fad16d639",
	"fill/SDSS/MistralAI":         "8db2737362cf65a08bbd12e393c164fd9f940b5135b75010dd8daf1f1f6aaaea",
	"fill/SQLShare/GPT3.5":        "835ba7e2413606c79662a51e3c69f98a42e81c7c594f02c55772fb81585e1f01",
	"fill/SQLShare/GPT4":          "fbf73aab4cd4601d35aea61d64e66f2565073de52326c6bc6274d7678b242b62",
	"fill/SQLShare/Gemini":        "ee315e8c9c9f824555a87df83c7cd12ad7c98b29f77d118ce32dac771ec38bef",
	"fill/SQLShare/Llama3":        "467feb5d5870b205da1a723a69ca642481c06eea44bd1d0b9384cc9512170f89",
	"fill/SQLShare/MistralAI":     "d0649091e5a1c31fee3422a1688b69e56d28fbff355487a361fdd8063ef810a4",
	"perf/SDSS/GPT3.5":            "5d08e3374f5f99b4dad7d08983e7e50d3084f43cf9ca4dabbbc7ac91e22a906a",
	"perf/SDSS/GPT4":              "0774c1e4dea9923e41b551ed9911df06491556eae11c0ed39aa85316b21244b1",
	"perf/SDSS/Gemini":            "2116d2411d09398a55c6d30aae984a34b8d617e2171800a3268f153b13ef8c2d",
	"perf/SDSS/Llama3":            "718c65fa45e13c76ee36b034e872790ee9900d5442bdfecdad8a993fa3d1c27c",
	"perf/SDSS/MistralAI":         "f798bbb1dae46885813b52731ee59914a76aefffe2f5c606f6633b110897ffb2",
	"state/Join-Order/GPT3.5":     "6487a23d0e385fd94ab600a6336a8709a219b4cdffb4332d023577c9b2fffed5",
	"state/Join-Order/GPT4":       "d0b377a663fac6c7df3d7f11a3fb05c9a2704602e70a24b0b925abb09d5bbe4d",
	"state/Join-Order/Gemini":     "63b38ba22e7e368084a1affd3d567287c599425b39031e236ebe0cac88f74756",
	"state/Join-Order/Llama3":     "09750d7f42451e979eadef91fd478278ec06fe6c89310b8a82ae20482d8da0d5",
	"state/Join-Order/MistralAI":  "5fbb6e5608aa791e796e7513709efa93b6698354ad1512a1f394439fd76053d6",
	"state/SDSS/GPT3.5":           "55cf75dc584e790fd44d174283c94b0d8e27932b226c550e1f5430f251ee6543",
	"state/SDSS/GPT4":             "f688ef67795d0615a0b576cae0bb35926985f462e69023cc4eb9edf5f39a7250",
	"state/SDSS/Gemini":           "d7acd545d5d94c7608760d4c32900b0565ad73c029cfa221c0264a778157e5ae",
	"state/SDSS/Llama3":           "0d020fbe94cad43f08ee46574431c465996e4f00f9676c2b4ae843d2ee1b0c1c",
	"state/SDSS/MistralAI":        "80ae4a4ac292d413bd28e25b90111de6bdb301ca8f149ae90429a70e9da65de4",
	"state/SQLShare/GPT3.5":       "aefa49c18c3f9f2a0aae711285413e4545d1c61eb1b1f7e03d653c1fb59f2cd2",
	"state/SQLShare/GPT4":         "3c4dad77a76cc66fe65f3422f01cf1a5e8cdb4b354e90587590db8af7c952efc",
	"state/SQLShare/Gemini":       "2b0c55c4584f3f37e910b0e0aae568038ab2c7f1823398e9efa30f6d01868541",
	"state/SQLShare/Llama3":       "247ac537f85da5a5f4496b1b16b71fa57b283e1244c121151d3782077288af59",
	"state/SQLShare/MistralAI":    "1734cf1049f5ca1e74a0af3cd26fd2d1c97e147fa2d95c5b8775a7a259d06d9b",
	"syntax/Join-Order/GPT3.5":    "556ae3bb9bdbf93a86938a0eaf50a2a599ea02499c7ce12db44bf8678da6cdf0",
	"syntax/Join-Order/GPT4":      "d3ba45b5863b5e853b3c80e662620e009f1529c6046db0d143ba2cc2616b1e7c",
	"syntax/Join-Order/Gemini":    "6d72008856e70ba5d4a7b2c21b0afd32527d316184d5b8476a036e394c747e7a",
	"syntax/Join-Order/Llama3":    "bc88b1edfe34a92a47fd1e2cd44f8ab4a47e54a95085a0d8ee10aaf1964d8aed",
	"syntax/Join-Order/MistralAI": "4e92ee4e669295cc237f6184b908f5a2fc910cb7269a4e36fa6e7ce5db66b69d",
	"syntax/SDSS/GPT3.5":          "0ad1aa4c1c1e46d3e48414390ab5f853a3b2b7ac66e28e2b3ef33ac3e65dd6f5",
	"syntax/SDSS/GPT4":            "818e590a807dfc5fb0a965dda2bb54cde6d63b4c65be7aac6156ea5da80bd9df",
	"syntax/SDSS/Gemini":          "682eb2f5eb3e1b6b4deecc89c421ccb8e7d7b2e66535fd868e34c7a050edfa48",
	"syntax/SDSS/Llama3":          "9917c401850c24ef26eb935834451545eb4dee0a92e06e8079f87f0f80e55366",
	"syntax/SDSS/MistralAI":       "6537b6beadd37e17f39a985f6bda9b79d73eb25f820a107113ce1cde9b0dcc0b",
	"syntax/SQLShare/GPT3.5":      "357619b5eb3ee13bf1136c4170ec82e4c451fd1434ff8f145f3c60c9d760890f",
	"syntax/SQLShare/GPT4":        "2b10be34cba628e623e13715b81eb8d0e64e6193cff67467677f285999323d34",
	"syntax/SQLShare/Gemini":      "d751f41f5e1107803bb043e46f6412803d4dbbc2634fa06ce0bc2a70d2f80b00",
	"syntax/SQLShare/Llama3":      "7197f1b7fa53bc6a294139095aca20424bd19fc8ec7b643cc18ddb222b09251a",
	"syntax/SQLShare/MistralAI":   "c8823d6f1b535c262f6c521ef9e952e8402a7e053fedb690ebbd730953d998b8",
	"tokens/Join-Order/GPT3.5":    "432bbca95b33e3a3af24d78a74eccbfbdeb3e73959c6f3a4e0077b61dc8f721c",
	"tokens/Join-Order/GPT4":      "a96576770f1c733a19adf7522b3c158efce13c34b1b083ca28271190c7dbe6c5",
	"tokens/Join-Order/Gemini":    "ab906005a6414183afbbba704f20e98b512d813f990e5d8cccfb46e518117617",
	"tokens/Join-Order/Llama3":    "309f6f0a72b5a05d698e5f07abb1e5282230a48c4d3574bb98cbe48df198bb81",
	"tokens/Join-Order/MistralAI": "35bc86b71a699dba22b0791555cfc3e2eba38ea44a5b5f782f8f03915965a0aa",
	"tokens/SDSS/GPT3.5":          "d7e0f0459b5fe2181f927dd990e2947055b3f7ea47bf24f0470d7ef376961b54",
	"tokens/SDSS/GPT4":            "9e69ab45ffb608ea1d724922b335f6a5f4d7ab1d2ac1ed86ff315e32f20523e5",
	"tokens/SDSS/Gemini":          "91118b8e94bf4eb7ca8287e0ffdfa6eeab7be630d4c4eeaf88ac7c5163a84ee2",
	"tokens/SDSS/Llama3":          "fc197d5214e1846e70775166cc8cc6ec08d4870fd8cdd7b5b6db15e5bc66ca78",
	"tokens/SDSS/MistralAI":       "45ac01582e9f761672069bc19aeb8d120bfd69af6c7bae017e83c9d14b2b7510",
	"tokens/SQLShare/GPT3.5":      "b498584a59d7b13ad4339cce980188d93ff3e8e4345ad2220fced2dba0bf3863",
	"tokens/SQLShare/GPT4":        "850ffae5ec2f53894465ddfe2ff37554edb39f7445760b4d424e1b0ccc568887",
	"tokens/SQLShare/Gemini":      "de95683c5c899186e37bb63aa073bf45ff3dac98258a4a06f3c78eff2269bf84",
	"tokens/SQLShare/Llama3":      "f49be463552ea332f560d92aba6d170f36f9986590ce07884ffb90fab2e7e6ac",
	"tokens/SQLShare/MistralAI":   "3b2868a7d7f0cf3cd62b2f63689ddb469fe73f6934f67829dc5c5a60d3a61bac",
}

// experimentsGolden pins the rendered output of every registered experiment
// for seeds 1 and 2 (verified build, as sqlbench runs it).
var experimentsGolden = map[int64]map[string]string{
	1: {
		"casestudy":   "1b2a58e593fa6660aed91e1e8e0abc87d0e9b2a72b1a7ff3fea4a9aff4bf3136",
		"ext-fewshot": "8a9b7cce5f312f01a84d7763ef151c9ea1daa35eafbdcdbe67b594d6e75ee6cc",
		"ext-tasks":   "65b3d9e3ec6bac1566a23764786e178ea51fd841b9d7f9081b8ef2d4baccec80",
		"fig1":        "8ce460eadfeef6cb165154675a4c1aaeeda133343a4b9a4dd143b0c908ef093b",
		"fig10":       "ece4a5e4313a63c90a67261c9fd406ff686f6a4a5882aa7cef9c09ad129ec3f3",
		"fig11":       "441544bc75eb379aa23196f831e5f320ef0b7ed2edcafecfd14d08039f2569f5",
		"fig12":       "5ad10cd30a55ad0f8ee67b7fa0e75ba543b20a5f9aca08ddcd448507d9da9b3e",
		"fig2":        "76eda37b14d804bffc476f182ee26087a8117a21d619bf40202312cd35d75c8a",
		"fig3":        "71509ebc442e9ba28555dd9a6b0a07da9e5572d88141b771495964f23419712d",
		"fig4":        "cffdfbe8ec7df0e337414ebbbf8d5fb129fdd39191eb7e836d61f5b021df84a3",
		"fig5":        "5cdff63b392ab010ceaca552063b9152fc1397fc09a98a9af03ebbb8b9d61127",
		"fig6":        "6703dff50236954b0dd04fc1c453710dda24b26eb63a0fc1939c625ccb1e6f8d",
		"fig7":        "65f03201b9462637e280775a266e6d692ad363e130adc09d0c177ad3a07e4ed6",
		"fig8":        "f98965baa972eabaf6cb7a5750f4f2ca634c38d9b09cc0e401ec76af2f66a263",
		"fig9":        "21e9375e10bfa00885d4556ef163c67dcb7fb30ffa4824b09cef5e4f0d69448b",
		"table1":      "6fc7bb4c5eaa11c8a93d6076316c4bea8c0f3a9841617088bb46809d07b2a218",
		"table2":      "78291f4f7884d6743076b6bbfc18f68c8a00bb3cb6c6857cd7c78d254aaefaa3",
		"table3":      "cbc2b7b75467352c5fc4ccad221c076cb2c4eec5ac1f64d8aaa582fc2eefe17c",
		"table4":      "24ce857f4e6a43c71e796909d43c9fa92cab65317eca67afcd9bfe1f27c1d5a6",
		"table5":      "b74d7c888ac4f555742881722a48d32a5122a2d10259b71b0281ee662a1b55d9",
		"table6":      "c8a776344fcc88b0fde46ad729f687f63cc581d91eb7012f46cf9ddf846754a0",
		"table7":      "8b7cf4bc694afbdf5c70fb83d47995b7793ed319e9c3db42002df04bb7b5d798",
	},
	2: {
		"casestudy":   "9ec826319495c2c66aa6e48dca9b93648ac312edb4bc605494dc94a09cc019a2",
		"ext-fewshot": "87cf6b6d11752dddce4ee3a21288682f5a4fcd41bc7b8dd93a86754aad64d5a8",
		"ext-tasks":   "e9ce5015b8dc8eb92816b3f30682c2e11b9cd6573a71bd8fc8605025eba4ccc1",
		"fig1":        "42a13421aa68f103099bc66e422a33beffc5bc6a15470bd6358e5a7a562c633e",
		"fig10":       "a3d00335028eaa40ff86596a16fc536e0c0a3170cd64aa6b19faa7f76aae1736",
		"fig11":       "6a05ba564ae0cf6440e3ad4d1d92fa6d1ef416109e9dd095bdaf78affa4d0bc5",
		"fig12":       "27b2a2dde7d20f2ccaf109ca770f1283ce9e25511f78c1bc6458992b5cd03c70",
		"fig2":        "d7ff1f529ad43dc2c6bde72481f60f687c951ca27c6ce78c0022ea4de3fa2cda",
		"fig3":        "3c1d3c30c8a6dbd0e3e5e34f97249c7460d57c2c34eb31113b6b0c8b75e33587",
		"fig4":        "c0e882fff5c73d7ea87fbcb290901ad4035d8f0fcd6f7e8676ab35cfe2dd1551",
		"fig5":        "5cdff63b392ab010ceaca552063b9152fc1397fc09a98a9af03ebbb8b9d61127",
		"fig6":        "fdc7a7f447bca98bbabe9c080fdc31edc6040180d666b3e3efaaa0abdf57b296",
		"fig7":        "ba9592e3b39464b9b53e1bddb3214bfa5f7e75f57f248bc2591db77ccbe4b530",
		"fig8":        "961faf9fb844fe1a8937aa94542ce74f9b7ea2c854d9c94f04c4b6db56e06187",
		"fig9":        "75511ab94e5d66c87621bf85d1cffa077cf34acf92718ed53a37647a7489dc05",
		"table1":      "6fc7bb4c5eaa11c8a93d6076316c4bea8c0f3a9841617088bb46809d07b2a218",
		"table2":      "78291f4f7884d6743076b6bbfc18f68c8a00bb3cb6c6857cd7c78d254aaefaa3",
		"table3":      "aa27c16206acb8733d38cbe737b5295223a2956b0a4a9dbbc07446f502b3b47a",
		"table4":      "b2154f9aa91cc8f79e3169c70b4eb2cd2890e44462b389c881feade0130168c9",
		"table5":      "b4bb7b4a6c42e0eb89baa93b2f3be8af730dcc2cc83b9e07cc7435d6333ae5a0",
		"table6":      "e6c0358cc78de1ac75b15276ec2cad5503fe8648adfae52946f4ece46166d974",
		"table7":      "33f42edd3480f1dcad2f5d30169530e24ced8c7bad264f747cc5a3201844d5fe",
	},
}

// recordingClient forwards to a model and keeps every response, rendered by
// line, in call order; the cells run at parallelism 1, so call order is
// example order.
type recordingClient struct {
	llm.Client
	line  func(llm.Response) string
	mu    sync.Mutex
	lines []string
}

func (c *recordingClient) Do(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := c.Client.Do(ctx, req)
	if err == nil {
		c.mu.Lock()
		c.lines = append(c.lines, c.line(resp))
		c.mu.Unlock()
	}
	return resp, err
}

// simResponseDigests runs every registered task cell through each fresh
// simulated model and hashes the response texts per cell×model.
func simResponseDigests(t *testing.T, bench *core.Benchmark) map[string]string {
	t.Helper()
	return simDigests(t, bench, func(r llm.Response) string { return r.Text })
}

// responseMeta renders what a response reports besides its text: token
// usage, simulated latency in nanoseconds, and the finish reason.
func responseMeta(r llm.Response) string {
	return fmt.Sprintf("%d %d %d %s", r.Usage.PromptTokens, r.Usage.CompletionTokens, r.Latency.Nanoseconds(), r.FinishReason)
}

// simDigests runs every registered task cell through each fresh simulated
// model and hashes line(response) per cell×model.
func simDigests(t *testing.T, bench *core.Benchmark, line func(llm.Response) string) map[string]string {
	t.Helper()
	k := sim.NewKnowledge(bench.SchemasByDataset())
	ctx := runner.WithParallelism(context.Background(), 1)
	out := map[string]string{}
	for _, task := range core.Tasks() {
		for _, ds := range task.Datasets() {
			examples, ok := task.Cell(bench, ds)
			if !ok {
				continue
			}
			for _, name := range llm.ModelNames {
				m, err := sim.New(name, k)
				if err != nil {
					t.Fatal(err)
				}
				rec := &recordingClient{Client: m, line: line}
				if err := task.RunStreamOpts(ctx, rec, examples, core.RunOpts{}, func(int, any, error) error { return nil }); err != nil {
					t.Fatalf("%s/%s/%s: %v", task.ID(), ds, name, err)
				}
				if len(rec.lines) != len(examples) {
					t.Fatalf("%s/%s/%s: %d responses for %d examples", task.ID(), ds, name, len(rec.lines), len(examples))
				}
				sum := sha256.Sum256([]byte(strings.Join(rec.lines, "\n")))
				out[task.ID()+"/"+ds+"/"+name] = hex.EncodeToString(sum[:])
			}
		}
	}
	return out
}

// compareGolden reports every key whose digest differs from (or is missing
// in) the pinned map, printing the got map sorted for easy re-capture.
func compareGolden(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := len(got) != len(want)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s %s: digest = %s, want %s", what, k, got[k], want[k])
			bad = true
		}
	}
	if bad {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("%s: %d digests, want %d; got:\n%s", what, len(got), len(want), b.String())
	}
}

func TestSimResponsesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a verified environment and runs every cell")
	}
	bench, err := core.Build(core.BuildConfig{Seed: 1, VerifyEquivalences: true})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "sim responses", simResponseDigests(t, bench), simResponsesGolden)
}

// TestSimResponseMetaGolden pins, per cell×model, the SHA-256 of each
// response's usage, simulated latency and finish reason (responseMeta, one
// line per example). The latency comes from the models' hash channels, so
// this pins those channels' exact values, which the response texts alone
// only sample.
func TestSimResponseMetaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a verified environment and runs every cell")
	}
	bench, err := core.Build(core.BuildConfig{Seed: 1, VerifyEquivalences: true})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "sim response meta", simDigests(t, bench, responseMeta), simResponseMetaGolden)
}

func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two verified environments")
	}
	for _, seed := range []int64{1, 2} {
		env, err := NewEnv(seed, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := map[string]string{}
		for _, exp := range All() {
			var buf bytes.Buffer
			if err := exp.Run(env, &buf); err != nil {
				t.Fatalf("seed %d %s: %v", seed, exp.ID, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got[exp.ID] = hex.EncodeToString(sum[:])
		}
		if len(got) != 22 {
			t.Errorf("seed %d: %d experiments, want 22", seed, len(got))
		}
		compareGolden(t, fmt.Sprintf("seed %d", seed), got, experimentsGolden[seed])
	}
}
